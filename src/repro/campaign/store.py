"""Persistent experiment store on stdlib ``sqlite3``.

Each row of the ``experiments`` table is one scenario, keyed by a stable
content-hash of its :class:`~repro.experiments.config.ScenarioConfig`.  The
store is the single source of truth shared by all workers of a campaign:
workers *claim* pending rows (an atomic ``pending → running`` transition),
execute them, and write the metrics payload back.  Because the key is a pure
function of the config, re-adding an already-``done`` scenario is a no-op and
its result is served from the store without re-running the simulation.

Claims carry a *lease*: ``claim`` stamps ``lease_expires_at`` and a live
worker renews it periodically (the executor runs a heartbeat thread).  A
``running`` row is only trusted while its lease holds — concurrent campaigns
over overlapping grids wait for live rows instead of re-executing them, and
crashed workers' rows become reclaimable the moment their lease lapses.

The store works with a file path (shared across processes; WAL mode) or with
``":memory:"`` for throwaway in-process campaigns.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sqlite3
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.ckpt.scheduler import CheckpointSchedule
from repro.cluster.network import NetworkSpec
from repro.cluster.node import NodeSpec
from repro.cluster.storage import StorageSpec
from repro.cluster.topology import ClusterSpec
from repro.experiments.config import FailureSpec, ScenarioConfig
from repro.storage.policy import StoragePolicy

#: experiment lifecycle states
STATUSES: Tuple[str, ...] = ("pending", "running", "done", "failed")

#: default lease on a ``running`` claim (seconds); renewed by the worker's
#: heartbeat at a third of this period
DEFAULT_LEASE_S = 300.0


# ------------------------------------------------------------- config (de)serialisation
def _schedule_to_dict(schedule: Optional[CheckpointSchedule]) -> Optional[Dict[str, object]]:
    if schedule is None:
        return None
    return {
        "times": list(schedule.times),
        "interval_s": schedule.interval_s,
        "first_at": schedule.first_at,
        "max_checkpoints": schedule.max_checkpoints,
    }


def _schedule_from_dict(data: Optional[Dict[str, object]]) -> Optional[CheckpointSchedule]:
    if data is None:
        return None
    return CheckpointSchedule(
        times=tuple(data.get("times", ())),
        interval_s=data.get("interval_s"),
        first_at=data.get("first_at"),
        max_checkpoints=data.get("max_checkpoints"),
    )


def _cluster_from_dict(data: Dict[str, object]) -> ClusterSpec:
    data = dict(data)
    data["node"] = NodeSpec(**data["node"])
    data["network"] = NetworkSpec(**data["network"])
    data["local_storage"] = StorageSpec(**data["local_storage"])
    data["remote_storage"] = StorageSpec(**data["remote_storage"])
    if data.get("storage_policy") is not None:
        data["storage_policy"] = StoragePolicy(**data["storage_policy"])
    return ClusterSpec(**data)


#: (field, default) pairs dropped from serialised configs when at their
#: default, so keys minted before the field existed remain valid.  The
#: cluster's switch radix and the failure spec's recovery-placement knobs
#: arrived with the recovery-orchestration subsystem, the storage policy and
#: switch-outage knobs with the storage-hierarchy subsystem; configs not
#: using them must keep their pre-subsystem key shape.
_CLUSTER_DEFAULT_FIELDS = (
    ("nodes_per_switch", ClusterSpec().nodes_per_switch),
    ("storage_policy", None),
)
_FAILURE_DEFAULT_FIELDS = (
    ("n_spares", 0),
    ("reboot_delay_s", 0.0),
    ("serialize_recoveries", False),
    ("switch_outage_at_s", None),
    ("outage_switch", 0),
    ("outage_spares_disks", False),
    ("switch_outage_rate_per_switch_s", None),
    ("elastic", False),
)


def config_to_dict(config: ScenarioConfig) -> Dict[str, object]:
    """JSON-safe dictionary fully describing a :class:`ScenarioConfig`.

    The ``failure`` entry is omitted entirely when no failure is injected, so
    scenario keys of failure-free configs are unchanged by the existence of
    the measured failure experiments; later-added fields are dropped when at
    their defaults for the same reason (see ``_*_DEFAULT_FIELDS``).
    """
    cluster = dataclasses.asdict(config.cluster)
    for name, default in _CLUSTER_DEFAULT_FIELDS:
        if cluster.get(name) == default:
            del cluster[name]
    out = {
        "workload": config.workload,
        "n_ranks": config.n_ranks,
        "method": config.method,
        "schedule": _schedule_to_dict(config.schedule),
        "cluster": cluster,
        "seed": config.seed,
        "workload_options": dict(config.workload_options),
        "max_group_size": config.max_group_size,
        "do_restart": config.do_restart,
    }
    if config.failure is not None:
        failure = dataclasses.asdict(config.failure)
        for name, default in _FAILURE_DEFAULT_FIELDS:
            if failure.get(name) == default:
                del failure[name]
        out["failure"] = failure
    return out


def config_from_dict(data: Dict[str, object]) -> ScenarioConfig:
    """Rebuild a :class:`ScenarioConfig` from :func:`config_to_dict` output."""
    return ScenarioConfig(
        workload=data["workload"],
        n_ranks=data["n_ranks"],
        method=data["method"],
        schedule=_schedule_from_dict(data.get("schedule")),
        cluster=_cluster_from_dict(data["cluster"]),
        seed=data.get("seed", 0),
        workload_options=dict(data.get("workload_options", {})),
        max_group_size=data.get("max_group_size"),
        do_restart=data.get("do_restart", True),
        failure=(FailureSpec(**data["failure"])
                 if data.get("failure") is not None else None),
    )


def scenario_key(config: ScenarioConfig) -> str:
    """Stable content-hash of a scenario config (the store's primary key).

    Two configs with equal field values always map to the same key, across
    processes and interpreter runs (``PYTHONHASHSEED`` has no effect).
    """
    canonical = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------------- row type
@dataclass
class ExperimentRow:
    """One experiment as stored in the database."""

    key: str
    config: ScenarioConfig
    status: str
    metrics: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    worker: Optional[str] = None
    attempts: int = 0
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    duration_s: Optional[float] = None
    lease_expires_at: Optional[float] = None


_SCHEMA = """
CREATE TABLE IF NOT EXISTS experiments (
    key         TEXT PRIMARY KEY,
    config      TEXT NOT NULL,
    status      TEXT NOT NULL DEFAULT 'pending',
    metrics     TEXT,
    error       TEXT,
    worker      TEXT,
    attempts    INTEGER NOT NULL DEFAULT 0,
    created_at  REAL NOT NULL,
    started_at  REAL,
    finished_at REAL,
    duration_s  REAL,
    lease_expires_at REAL
);
CREATE INDEX IF NOT EXISTS idx_experiments_status ON experiments (status);
CREATE TABLE IF NOT EXISTS benchmarks (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    name        TEXT NOT NULL,
    payload     TEXT NOT NULL,
    created_at  REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_benchmarks_name ON benchmarks (name);
"""

_COLUMNS = ("key", "config", "status", "metrics", "error", "worker",
            "attempts", "created_at", "started_at", "finished_at", "duration_s",
            "lease_expires_at")


class CampaignStore:
    """SQLite-backed experiment store shared by campaign workers.

    Parameters
    ----------
    path:
        Database file, or ``":memory:"`` for an in-process throwaway store
        (an in-memory store cannot be shared with worker processes).
    check_same_thread:
        Pass ``False`` to share one store object between threads (the
        observatory server does, serialising access behind its cache lock);
        sqlite's default single-thread ownership check stays on otherwise.
    """

    def __init__(self, path: str = ":memory:",
                 check_same_thread: bool = True) -> None:
        self.path = path
        self._conn = sqlite3.connect(path, timeout=60.0, isolation_level=None,
                                     check_same_thread=check_same_thread)
        if not self.is_memory:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=60000")
        self._conn.executescript(_SCHEMA)
        self._migrate()

    def _migrate(self) -> None:
        """Add columns introduced after a store file was first created."""
        have = {row[1] for row in self._conn.execute("PRAGMA table_info(experiments)")}
        if "lease_expires_at" not in have:
            self._conn.execute(
                "ALTER TABLE experiments ADD COLUMN lease_expires_at REAL")

    @property
    def is_memory(self) -> bool:
        """True for ``":memory:"`` stores (not shareable across processes)."""
        return self.path == ":memory:"

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    # -- writing ----------------------------------------------------------------------
    def add(self, config: ScenarioConfig) -> str:
        """Register a scenario (no-op if its key already exists) and return its key."""
        return self.add_many([config])[0]

    def add_many(self, configs: Iterable[ScenarioConfig]) -> List[str]:
        """Register several scenarios in one transaction; keys in input order.

        Pending rows are claimed in registration order.
        """
        conn = self._conn
        keys: List[str] = []
        now = time.time()
        try:
            conn.execute("BEGIN")
            for config in configs:
                key = scenario_key(config)
                conn.execute(
                    "INSERT OR IGNORE INTO experiments (key, config, status, created_at) "
                    "VALUES (?, ?, 'pending', ?)",
                    (key, json.dumps(config_to_dict(config), sort_keys=True), now),
                )
                keys.append(key)
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise
        return keys

    def claim(
        self,
        worker: str = "worker",
        keys: Optional[Sequence[str]] = None,
        lease_s: float = DEFAULT_LEASE_S,
    ) -> Optional[ExperimentRow]:
        """Atomically claim one ``pending`` experiment (``pending → running``).

        Returns None when no pending experiment is left.  Pending rows are
        claimed in registration order (oldest first).  ``keys`` restricts
        the claim to those experiments (None = any pending row — the
        whole-store pull model).  The claim is a single ``BEGIN IMMEDIATE``
        transaction, so concurrent workers on the same database never claim
        the same row twice.  The claim holds a lease of ``lease_s`` seconds
        (renew with :meth:`renew_lease`); once it lapses the row counts as
        orphaned and :meth:`reclaim_expired` may hand it to another worker.
        """
        conn = self._conn
        query = "SELECT key FROM experiments WHERE status = 'pending'"
        params: Tuple = ()
        if keys is not None:
            if not keys:
                return None
            query += f" AND key IN ({','.join('?' for _ in keys)})"
            params = tuple(keys)
        query += " ORDER BY created_at, rowid LIMIT 1"
        try:
            conn.execute("BEGIN IMMEDIATE")
            picked = conn.execute(query, params).fetchone()
            if picked is None:
                conn.execute("COMMIT")
                return None
            now = time.time()
            conn.execute(
                "UPDATE experiments SET status = 'running', worker = ?, "
                "attempts = attempts + 1, started_at = ?, lease_expires_at = ? "
                "WHERE key = ?",
                (worker, now, now + lease_s, picked[0]),
            )
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise
        return self.get(picked[0])

    def renew_lease(self, key: str, worker: str,
                    lease_s: float = DEFAULT_LEASE_S) -> bool:
        """Extend a live claim's lease (the worker heartbeat).

        Only renews while the row is still ``running`` *and* still owned by
        ``worker`` — a claim that was reclaimed after expiry cannot be
        resurrected by its original owner's stale heartbeat.  Returns
        whether the lease was renewed.
        """
        cur = self._conn.execute(
            "UPDATE experiments SET lease_expires_at = ? "
            "WHERE key = ? AND worker = ? AND status = 'running'",
            (time.time() + lease_s, key, worker),
        )
        return cur.rowcount > 0

    def expired_running_keys(self, keys: Optional[Sequence[str]] = None) -> List[str]:
        """Keys of ``running`` rows whose lease has lapsed (orphaned claims).

        Rows without a lease stamp (written by a pre-lease store version)
        count as expired.  ``keys`` restricts the scan.
        """
        if keys is not None and not keys:
            return []
        query = ("SELECT key FROM experiments WHERE status = 'running' "
                 "AND (lease_expires_at IS NULL OR lease_expires_at < ?)")
        params: List[object] = [time.time()]
        if keys is not None:
            query += f" AND key IN ({','.join('?' for _ in keys)})"
            params += list(keys)
        return [row[0] for row in self._conn.execute(query, tuple(params))]

    def reclaim_expired(self, keys: Optional[Sequence[str]] = None) -> int:
        """Return orphaned ``running`` rows (lease lapsed) to ``pending``.

        The lease-aware replacement for blanket ``reset(("running",))``:
        rows whose worker is alive (lease still valid) are left alone, so
        two concurrent campaigns over overlapping grids no longer re-execute
        each other's live experiments.  Returns the number of rows reclaimed.
        """
        expired = self.expired_running_keys(keys)
        if not expired:
            return 0
        return self.reset(("running",), keys=expired)

    def mark_done(self, key: str, metrics: Dict[str, object],
                  duration_s: Optional[float] = None) -> bool:
        """Record a successful run's metrics payload (``running → done``).

        Only transitions rows currently ``running`` — a stale worker whose
        claim was re-opened and finished by someone else cannot clobber the
        stored result.  Returns whether the row was updated.
        """
        cur = self._conn.execute(
            "UPDATE experiments SET status = 'done', metrics = ?, error = NULL, "
            "finished_at = ?, duration_s = ? WHERE key = ? AND status = 'running'",
            (json.dumps(metrics, sort_keys=True), time.time(), duration_s, key),
        )
        return cur.rowcount > 0

    def mark_failed(self, key: str, error: str) -> bool:
        """Record a failed run's traceback (``running → failed``).

        Like :meth:`mark_done`, only transitions ``running`` rows, so a
        duplicate execution dying late cannot discard a valid ``done``
        result.  Returns whether the row was updated.
        """
        cur = self._conn.execute(
            "UPDATE experiments SET status = 'failed', error = ?, finished_at = ? "
            "WHERE key = ? AND status = 'running'",
            (error, time.time(), key),
        )
        return cur.rowcount > 0

    def reset(
        self,
        statuses: Sequence[str] = ("running", "failed"),
        keys: Optional[Sequence[str]] = None,
    ) -> int:
        """Return experiments in ``statuses`` to ``pending`` (for resume).

        ``running`` rows belong to workers that crashed mid-experiment;
        ``failed`` rows carry a traceback from a previous attempt.  ``keys``
        restricts the reset to those experiments (None = the whole store).
        Returns the number of rows reset.
        """
        for status in statuses:
            if status not in STATUSES:
                raise ValueError(f"unknown status {status!r}; expected one of {STATUSES}")
        marks = ",".join("?" for _ in statuses)
        query = (f"UPDATE experiments SET status = 'pending', worker = NULL, "
                 f"error = NULL, lease_expires_at = NULL "
                 f"WHERE status IN ({marks})")
        params = list(statuses)
        if keys is not None:
            if not keys:
                return 0
            query += f" AND key IN ({','.join('?' for _ in keys)})"
            params += list(keys)
        cur = self._conn.execute(query, tuple(params))
        return cur.rowcount

    def clear(self) -> None:
        """Delete every experiment (mainly for tests)."""
        self._conn.execute("DELETE FROM experiments")

    # -- simulator-version invalidation ------------------------------------------------
    def stale_done_keys(
        self,
        required: Dict[str, object],
        keys: Optional[Sequence[str]] = None,
    ) -> List[str]:
        """Keys of ``done`` rows whose payload stamp does not match ``required``.

        ``required`` maps payload entries (e.g. ``version``,
        ``sim_version``) to the values the running simulator produces; a row
        missing any entry or carrying a different value is stale — it was
        written by an older payload format or an older simulation kernel and
        must be re-run rather than served from cache.  ``keys`` restricts the
        scan to those experiments.

        The comparison runs inside SQLite via ``json_extract`` (``IS NOT``
        also catches missing entries), so a large store pays index-speed
        string compares instead of deserialising every payload; builds
        without the JSON1 extension fall back to a Python scan.
        """
        if keys is not None and not keys:
            return []
        names = sorted(required)
        scope = ""
        scope_params: Tuple = ()
        if keys is not None:
            scope = f" AND key IN ({','.join('?' for _ in keys)})"
            scope_params = tuple(keys)
        stamp_clause = " OR ".join(
            "json_extract(metrics, ?) IS NOT ?" for _ in names
        )
        stamp_params = tuple(p for name in names for p in (f"$.{name}", required[name]))
        try:
            rows = self._conn.execute(
                "SELECT key FROM experiments WHERE status = 'done' "
                f"AND (metrics IS NULL OR {stamp_clause}){scope}",
                stamp_params + scope_params,
            ).fetchall()
            return [row[0] for row in rows]
        except sqlite3.OperationalError:
            # sqlite compiled without JSON1: scan the payloads in Python
            stale: List[str] = []
            query = f"SELECT key, metrics FROM experiments WHERE status = 'done'{scope}"
            for key, raw in self._conn.execute(query, scope_params):
                metrics = json.loads(raw) if raw else {}
                if any(metrics.get(name) != value for name, value in required.items()):
                    stale.append(key)
            return stale

    # -- benchmark side table ----------------------------------------------------------
    def record_benchmark(self, name: str, payload: Dict[str, object]) -> int:
        """Append a benchmark measurement (e.g. kernel events/sec) to the store.

        Unlike experiment rows, benchmark rows are never deduplicated or
        cached: every run appends, so the table is a measurement history.
        Every row is stamped (unless the caller already did) with the payload
        format version, the simulator fingerprint and a UTC timestamp, so the
        events/sec trajectory across simulator revisions stays attributable
        long after the code that produced a row is gone (read it back with
        ``tools/bench_trend.py`` or the observatory's ``/api/bench``).
        Returns the row id.
        """
        from repro.campaign.results import PAYLOAD_VERSION, simulator_fingerprint

        stamped = dict(payload)
        stamped.setdefault("payload_version", PAYLOAD_VERSION)
        stamped.setdefault("sim_version", simulator_fingerprint())
        stamped.setdefault(
            "recorded_at_utc",
            datetime.now(timezone.utc).isoformat(timespec="seconds"))
        cur = self._conn.execute(
            "INSERT INTO benchmarks (name, payload, created_at) VALUES (?, ?, ?)",
            (name, json.dumps(stamped, sort_keys=True), time.time()),
        )
        return cur.lastrowid

    def benchmark_rows(self, name: Optional[str] = None) -> List[Dict[str, object]]:
        """Stored benchmark measurements, oldest first (optionally one series)."""
        query = "SELECT id, name, payload, created_at FROM benchmarks"
        params: Tuple = ()
        if name is not None:
            query += " WHERE name = ?"
            params = (name,)
        query += " ORDER BY id"
        return [
            {"id": row[0], "name": row[1], "payload": json.loads(row[2]),
             "created_at": row[3]}
            for row in self._conn.execute(query, params)
        ]

    # -- reading ----------------------------------------------------------------------
    def _row(self, raw: Tuple) -> ExperimentRow:
        data = dict(zip(_COLUMNS, raw))
        return ExperimentRow(
            key=data["key"],
            config=config_from_dict(json.loads(data["config"])),
            status=data["status"],
            metrics=json.loads(data["metrics"]) if data["metrics"] else None,
            error=data["error"],
            worker=data["worker"],
            attempts=data["attempts"],
            created_at=data["created_at"],
            started_at=data["started_at"],
            finished_at=data["finished_at"],
            duration_s=data["duration_s"],
            lease_expires_at=data["lease_expires_at"],
        )

    def get(self, key_or_config) -> Optional[ExperimentRow]:
        """Look up one experiment by key or by config (None if absent)."""
        key = (key_or_config if isinstance(key_or_config, str)
               else scenario_key(key_or_config))
        raw = self._conn.execute(
            f"SELECT {','.join(_COLUMNS)} FROM experiments WHERE key = ?", (key,)
        ).fetchone()
        return self._row(raw) if raw is not None else None

    def rows(self, status: Optional[str] = None) -> List[ExperimentRow]:
        """All experiments, optionally filtered by status, oldest first
        (the rows of one :meth:`add_many` in registration order)."""
        query = f"SELECT {','.join(_COLUMNS)} FROM experiments"
        params: Tuple = ()
        if status is not None:
            query += " WHERE status = ?"
            params = (status,)
        query += " ORDER BY created_at, rowid"
        return [self._row(raw) for raw in self._conn.execute(query, params)]

    def counts(self, keys: Optional[Sequence[str]] = None) -> Dict[str, int]:
        """Experiment count per status (zero-filled for absent statuses).

        ``keys`` restricts the tally to those experiments.
        """
        out = {status: 0 for status in STATUSES}
        query = "SELECT status, COUNT(*) FROM experiments"
        params: Tuple = ()
        if keys is not None:
            if not keys:
                return out
            query += f" WHERE key IN ({','.join('?' for _ in keys)})"
            params = tuple(keys)
        query += " GROUP BY status"
        for status, count in self._conn.execute(query, params):
            out[status] = count
        return out

    def generation(self) -> Tuple[int, ...]:
        """Cheap *generation stamp*: changes whenever the store's contents do.

        The stamp combines sqlite's ``data_version`` pragma (bumped every
        time another connection commits a change — claims, lease renewals,
        results, anything), the experiment row count + high-water ``rowid``
        (inserts, including re-inserts after deletes), the per-status counts
        (state transitions made through *this* connection, which
        ``data_version`` does not see), and the benchmark table's high-water
        id.  All probes are index-speed aggregate queries — no payloads are
        deserialised — so the stamp is cheap enough to take per request: the
        observatory's response cache keys every expensive aggregate on it,
        and equal stamps guarantee the cached aggregate is still current.
        """
        data_version = self._conn.execute("PRAGMA data_version").fetchone()[0]
        n_rows, max_rowid = self._conn.execute(
            "SELECT COUNT(*), COALESCE(MAX(rowid), 0) FROM experiments"
        ).fetchone()
        counts = self.counts()
        bench_max = self._conn.execute(
            "SELECT COALESCE(MAX(id), 0) FROM benchmarks").fetchone()[0]
        return (data_version, n_rows, max_rowid,
                *(counts[status] for status in STATUSES), bench_max)

    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM experiments").fetchone()[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CampaignStore {self.path!r} {self.counts()}>"
