"""Parallel campaign execution with resume.

The execution model follows PyExperimenter: experiments live in a shared
store, and any number of workers — here processes of a
``concurrent.futures.ProcessPoolExecutor`` — *pull* open experiments from it,
run :func:`~repro.experiments.runner.run_scenario`, and write the metrics
payload back.  Nothing is pushed to a specific worker, so workers can crash
(their claims are reset by :meth:`Campaign.resume`) and a campaign can be
finished across several invocations or even machines sharing the database
file.

Everything that crosses the process boundary is a module-level function with
plain-data arguments (:func:`campaign_worker` gets the database *path*, never
a live store or a closure), so the executor path is pickle-safe under every
multiprocessing start method.
"""

from __future__ import annotations

import atexit
import os
import tempfile
import threading
import time
import traceback
import uuid
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Union

from repro.campaign.results import StoredResult, metrics_payload, payload_stamp
from repro.campaign.store import DEFAULT_LEASE_S, CampaignStore, ExperimentRow
from repro.experiments.config import ScenarioConfig


class CampaignError(RuntimeError):
    """A campaign finished with failed experiments."""


# ------------------------------------------------------------------- worker entry points
def execute_scenario(config: ScenarioConfig) -> Dict[str, object]:
    """Run one scenario and return its metrics payload.

    Top-level and picklable: this is the campaign task function handed to
    worker processes (directly or via :func:`campaign_worker`).
    """
    from repro.experiments.runner import run_scenario

    return metrics_payload(run_scenario(config))


class _LeaseHeartbeat:
    """Background thread renewing one claim's lease while it executes.

    Uses its own store connection (sqlite connections are not shareable
    across threads) and stops silently once asked — a stale heartbeat can
    never resurrect a claim that expired and was reclaimed, because
    :meth:`CampaignStore.renew_lease` checks owner and status.
    """

    def __init__(self, db_path: str, key: str, worker: str, lease_s: float) -> None:
        self.db_path = db_path
        self.key = key
        self.worker = worker
        self.lease_s = lease_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"lease-heartbeat:{key[:8]}")
        self._thread.start()

    def _run(self) -> None:
        store = CampaignStore(self.db_path)
        try:
            while not self._stop.wait(self.lease_s / 3.0):
                if not store.renew_lease(self.key, self.worker, self.lease_s):
                    return
        finally:
            store.close()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def drain_store(
    store: CampaignStore,
    worker: str = "worker",
    keys: Optional[Sequence[str]] = None,
    lease_s: float = DEFAULT_LEASE_S,
    telemetry=None,
) -> int:
    """Claim-and-run experiments from ``store`` until none is pending.

    ``keys`` restricts the worker to those experiments (None = pull
    anything pending).  Returns the number of experiments executed
    (successfully or not).  Failures are recorded in the store with their
    traceback; they never propagate, so one bad scenario cannot take the
    whole worker down.  On a file-backed store each claim is kept alive by
    a heartbeat thread renewing its lease every ``lease_s / 3`` seconds, so
    long scenarios are never mistaken for crashed ones.

    ``telemetry`` (a wall-clock ``repro.obs.Telemetry``) records one
    ``campaign_task`` span per claim→run→store cycle on a per-worker track,
    plus executed/failed counters — the campaign-level view of where worker
    time goes.  With ``REPRO_TELEMETRY=1`` and ``REPRO_TELEMETRY_DIR`` set a
    handle is created automatically and its Chrome trace written to that
    directory when the drain finishes.
    """
    auto_export: Optional[str] = None
    if telemetry is None:
        from repro.obs import TELEMETRY_DIR_ENV, Telemetry, tracing_enabled_from_env

        out_dir = os.environ.get(TELEMETRY_DIR_ENV)
        if tracing_enabled_from_env() and out_dir:
            telemetry = Telemetry(clock=time.time)
            auto_export = out_dir
    executed = 0
    while True:
        row = store.claim(worker, keys=keys, lease_s=lease_s)
        if row is None:
            break
        executed += 1
        heartbeat = None
        if not store.is_memory and lease_s > 0:
            heartbeat = _LeaseHeartbeat(store.path, row.key, worker, lease_s)
        started = time.time()
        span = None
        if telemetry is not None and telemetry.tracing:
            span = telemetry.tracer.begin(
                "campaign_task", track=f"worker:{worker}", category="campaign",
                key=row.key, workload=row.config.workload,
                method=row.config.method, n_ranks=row.config.n_ranks)
        try:
            metrics = execute_scenario(row.config)
        except Exception:
            store.mark_failed(row.key, traceback.format_exc())
            if telemetry is not None:
                telemetry.metrics.counter("campaign.tasks.failed").inc()
                if span is not None:
                    telemetry.tracer.end(span, status="failed")
        else:
            store.mark_done(row.key, metrics, duration_s=time.time() - started)
            if telemetry is not None:
                telemetry.metrics.counter("campaign.tasks.executed").inc()
                telemetry.metrics.histogram("campaign.task.duration_s").observe(
                    time.time() - started)
                if span is not None:
                    telemetry.tracer.end(span, status="done")
        finally:
            if heartbeat is not None:
                heartbeat.stop()
    if auto_export is not None and telemetry.tracer.spans:
        from repro.obs import write_chrome_trace

        path = os.path.join(auto_export, f"campaign-trace-{worker}.json")
        write_chrome_trace(path, telemetry.tracer, telemetry.metrics,
                           process_name=f"campaign:{worker}")
    return executed


def campaign_worker(
    db_path: str,
    worker: str = "worker",
    clear_caches: bool = True,
    keys: Optional[Sequence[str]] = None,
    lease_s: float = DEFAULT_LEASE_S,
) -> int:
    """Worker-process main: open the store at ``db_path`` and drain it.

    ``clear_caches=True`` (the default for subprocess workers) resets the
    in-process trace/group memo caches first: under the ``fork`` start method
    a worker inherits the parent's caches, and a stale inherited trace must
    never leak into a freshly claimed experiment.
    """
    if clear_caches:
        from repro.experiments.runner import clear_caches as _clear

        _clear()
    store = CampaignStore(db_path)
    try:
        return drain_store(store, worker, keys=keys, lease_s=lease_s)
    finally:
        store.close()


# ------------------------------------------------------------------------------ campaign
class Campaign:
    """A persistent, parallel experiment sweep over one store.

    Parameters
    ----------
    store:
        The backing :class:`CampaignStore`, or a database path.  Defaults to
        a throwaway in-memory store (sequential execution only).
    n_workers:
        Default parallelism of :meth:`run`/:meth:`resume`.  ``<= 1`` executes
        inline in the calling process (sharing its trace caches); ``> 1``
        spawns that many worker processes, which requires a file-backed store.
    lease_s:
        Lease duration on ``running`` claims.  Workers renew their lease in
        the background; :meth:`run` waits for (rather than re-executes) rows
        another live campaign holds, and reclaims them once the lease lapses.
    """

    def __init__(self, store: Union[CampaignStore, str, None] = None, n_workers: int = 1,
                 lease_s: float = DEFAULT_LEASE_S) -> None:
        if store is None:
            store = CampaignStore(":memory:")
        elif isinstance(store, str):
            store = CampaignStore(store)
        if n_workers > 1 and store.is_memory:
            raise ValueError("parallel campaigns need a file-backed store "
                             "(an in-memory database cannot be shared with workers)")
        if lease_s < 0:
            raise ValueError("lease_s must be non-negative")
        self.store = store
        self.n_workers = n_workers
        self.lease_s = lease_s
        #: experiments executed (not served from cache) by the last run()/resume()
        self.last_executed = 0

    #: poll interval while waiting on another campaign's live rows
    _WAIT_POLL_S = 0.5

    # -- execution --------------------------------------------------------------------
    def _drain(self, n_workers: int, keys: Optional[Sequence[str]] = None,
               pending: Optional[int] = None) -> int:
        if n_workers > 1 and self.store.is_memory:
            raise ValueError("parallel campaigns need a file-backed store "
                             "(an in-memory database cannot be shared with workers)")
        if pending is not None:
            # never spawn more workers than there is work for
            n_workers = min(n_workers, pending)
        # Worker names must be globally unique: renew_lease/mark_* trust the
        # (key, worker) pair, so two campaigns both naming a worker
        # "worker-0" could resurrect or stomp each other's claims.
        token = uuid.uuid4().hex[:8]
        if n_workers <= 1:
            # Inline: reuse this process's store handle and trace caches.
            return drain_store(self.store, worker=f"inline-{os.getpid()}-{token}",
                               keys=keys, lease_s=self.lease_s)
        keys = list(keys) if keys is not None else None
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [
                pool.submit(campaign_worker, self.store.path,
                            f"worker-{token}-{i}", True, keys, self.lease_s)
                for i in range(n_workers)
            ]
            return sum(future.result() for future in futures)

    def run(
        self,
        configs: Sequence[ScenarioConfig],
        n_workers: Optional[int] = None,
        strict: bool = True,
    ) -> List[StoredResult]:
        """Ensure every config has a result and return them in input order.

        Already-``done`` rows are served straight from the store (the
        cache-hit short circuit); only missing ones are executed, with
        ``n_workers``-way parallelism.  Execution is scoped to the requested
        configs — pending rows that other sweeps left in a shared store are
        not drained here (``resume()`` is the whole-store operation).
        Requested rows that ``failed`` on an earlier attempt, or whose
        ``running`` claim's *lease has lapsed* (the worker crashed), are
        re-opened first — so "interrupt, then simply re-run" resumes a
        sweep.  A requested row that another live campaign is executing
        right now (its lease renews) is *waited for*, not re-executed, so
        concurrent ``run()``s over overlapping grids no longer duplicate
        work.  With ``strict`` (default) a failed experiment raises
        :class:`CampaignError` carrying its stored traceback; otherwise
        failed entries come back as None.
        """
        keys = self.store.add_many(configs)
        self.store.reset(("failed",), keys=keys)
        self.store.reclaim_expired(keys=keys)
        stale = self.store.stale_done_keys(payload_stamp(), keys=keys)
        if stale:
            # rows written by an older payload format *or* an older simulation
            # kernel (package version / kernel schema rev): re-run, don't serve
            self.store.reset(("done",), keys=stale)
        self.last_executed = 0
        workers = self.n_workers if n_workers is None else n_workers
        while True:
            counts = self.store.counts(keys=keys)
            if counts["pending"]:
                self.last_executed += self._drain(
                    workers, keys=keys, pending=counts["pending"])
                continue
            if counts["running"]:
                # Another live campaign holds these rows: wait for its
                # results (or for its lease to lapse, then take over).
                # Results appear at scenario granularity (seconds), so a
                # coarse poll keeps the shared store free of query churn.
                if self.store.reclaim_expired(keys=keys):
                    continue
                time.sleep(self._WAIT_POLL_S)
                continue
            break
        out: List[Optional[StoredResult]] = []
        failures: List[ExperimentRow] = []
        for key in keys:
            row = self.store.get(key)
            if row is None or row.status != "done" or row.metrics is None:
                if row is not None and row.status == "failed":
                    failures.append(row)
                out.append(None)
            else:
                out.append(StoredResult(row.config, row.metrics))
        if failures and strict:
            first = failures[0]
            raise CampaignError(
                f"{len(failures)} of {len(keys)} experiments failed; first failure "
                f"({first.config.workload}/{first.config.method}/n={first.config.n_ranks}):\n"
                f"{first.error}"
            )
        if strict and any(result is None for result in out):
            raise CampaignError("campaign finished with unresolved experiments "
                                f"(store counts: {self.store.counts()})")
        return out

    def run_one(self, config: ScenarioConfig) -> StoredResult:
        """Convenience: run (or fetch) a single scenario."""
        return self.run([config])[0]

    def resume(self, n_workers: Optional[int] = None, force: bool = False) -> int:
        """Re-open ``failed`` and orphaned ``running`` rows and drain the store.

        Call after a crash (worker or whole process) to finish a campaign
        without re-running anything already ``done``.  Orphaned means the
        claim's lease lapsed; with ``force=True`` even live-leased rows are
        re-opened (the pre-lease stomp — only safe when no other campaign
        is running).  ``done`` rows written by an older simulator (payload
        or kernel fingerprint mismatch) are re-opened as well.  Returns the
        number of experiments executed.
        """
        self.store.reset(("failed",))
        if force:
            self.store.reset(("running",))
        else:
            self.store.reclaim_expired()
        stale = self.store.stale_done_keys(payload_stamp())
        if stale:
            self.store.reset(("done",), keys=stale)
        pending = self.store.counts()["pending"]
        self.last_executed = self._drain(
            self.n_workers if n_workers is None else n_workers, pending=pending
        ) if pending else 0
        return self.last_executed

    def results(self, status: str = "done") -> List[StoredResult]:
        """All stored results with the given status (default: finished ones)."""
        return [StoredResult(row.config, row.metrics)
                for row in self.store.rows(status=status)]

    def counts(self) -> Dict[str, int]:
        """Experiment count per status (delegates to the store)."""
        return self.store.counts()


# ----------------------------------------------------------------- default campaign hook
_DEFAULT_CAMPAIGN: Optional[Campaign] = None
_DEFAULT_IS_AUTO = False
_DEFAULT_TMP_PATH: Optional[str] = None


def _remove_tmp_store() -> None:
    global _DEFAULT_TMP_PATH
    if _DEFAULT_TMP_PATH is not None:
        for suffix in ("", "-wal", "-shm"):
            try:
                os.remove(_DEFAULT_TMP_PATH + suffix)
            except OSError:
                pass
        _DEFAULT_TMP_PATH = None


def set_default_campaign(campaign: Optional[Campaign]) -> None:
    """Install the campaign the experiment declarations run on (None resets to auto)."""
    global _DEFAULT_CAMPAIGN, _DEFAULT_IS_AUTO
    _DEFAULT_CAMPAIGN = campaign
    _DEFAULT_IS_AUTO = False


def get_default_campaign() -> Campaign:
    """The process-wide campaign behind :meth:`repro.experiments.declaration.Experiment.run`.

    Auto-created on first use from the environment:

    * ``REPRO_CAMPAIGN_DB`` — database path (default: in-memory, i.e. results
      live for the process only),
    * ``REPRO_CAMPAIGN_WORKERS`` — parallelism (default 1; values > 1 without
      an explicit database get a temporary file-backed store).
    """
    global _DEFAULT_CAMPAIGN, _DEFAULT_IS_AUTO, _DEFAULT_TMP_PATH
    if _DEFAULT_CAMPAIGN is None:
        path = os.environ.get("REPRO_CAMPAIGN_DB", ":memory:")
        n_workers = int(os.environ.get("REPRO_CAMPAIGN_WORKERS", "1"))
        if n_workers > 1 and path == ":memory:":
            fd, path = tempfile.mkstemp(prefix="repro-campaign-", suffix=".sqlite")
            os.close(fd)
            _DEFAULT_TMP_PATH = path
            atexit.register(_remove_tmp_store)
        _DEFAULT_CAMPAIGN = Campaign(CampaignStore(path), n_workers=n_workers)
        _DEFAULT_IS_AUTO = True
    return _DEFAULT_CAMPAIGN


def reset_default_campaign(only_auto: bool = True) -> None:
    """Drop the auto-created default campaign (its in-memory results vanish).

    With ``only_auto`` (the default) an explicitly installed campaign is kept:
    its persistent store is authoritative, not a throwaway memo.
    """
    global _DEFAULT_CAMPAIGN, _DEFAULT_IS_AUTO
    if _DEFAULT_CAMPAIGN is not None and (_DEFAULT_IS_AUTO or not only_auto):
        _DEFAULT_CAMPAIGN.store.close()
        _DEFAULT_CAMPAIGN = None
        _DEFAULT_IS_AUTO = False
        _remove_tmp_store()
