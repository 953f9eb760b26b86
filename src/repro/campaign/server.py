"""Campaign observatory service: the read-side REST API over a store.

A stdlib-only (``http.server.ThreadingHTTPServer``) service that exposes any
campaign sqlite store to many concurrent readers without ever touching the
simulator::

    PYTHONPATH=src python -m repro.campaign.server --db sweep.sqlite --port 8032

Endpoints
---------

``GET /``
    Self-refreshing HTML observatory (the PR 9 dashboard renderer): polls
    ``/api/progress`` and reloads when the store's ETag changes.
``GET /api/progress``
    The :func:`~repro.campaign.progress.campaign_progress` snapshot as JSON.
``GET /api/results``
    Stored results, filterable by ``status``/``workload``/``method``/
    ``n_ranks``/``seed``/``limit``; JSON by default, CSV via ``?format=csv``
    or ``Accept: text/csv``.
``GET /api/tables/<name>``
    A table of a declared experiment (:data:`EXPERIMENTS`), rebuilt by its
    ``from_store`` from the stored payloads carrying its stamp (value-equal
    to the CLI sweep's table for the same store; 400 naming the differing
    fields when two availability cells collide on one row).
``GET /api/bench``
    The ``benchmarks`` side table (events/sec history), filterable by
    ``name``, newest-last.
``GET /metrics``
    Prometheus text exposition: rows by status, done fraction, throughput,
    ETA, lease health, mean task duration, newest benchmark events/sec, and
    the server's own request/cache counters.
``GET /healthz``
    Liveness + the store's current generation stamp (never cached).

Caching
-------

Every expensive aggregate is memoised in a
:class:`~repro.campaign.cache.GenerationCache` keyed by the store's cheap
generation stamp: repeated reads of a quiet store are served from memory
with strong ETags, conditional requests collapse to ``304 Not Modified``,
and the ``server.cache.hit`` / ``server.cache.miss`` counter pair (exported
on ``/metrics``) proves N concurrent readers cost one aggregation pass.
Writers are never blocked: the store is WAL-journalled, readers take no
write locks, and the one serialised code path is the server's own aggregate
computation.  Corollary of generation-keying: time-derived fields (lease
seconds-left, ETA) refresh when the store changes, not per wall-clock tick.
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.analysis.reporting import table_to_dict
from repro.campaign.cache import GenerationCache
from repro.campaign.dashboard import render_progress_html
from repro.campaign.export import (
    CONFIG_FIELDS,
    METRIC_FIELDS,
    results_to_csv_text,
    stored_results,
)
from repro.campaign.progress import campaign_progress
from repro.campaign.metrics_export import (
    campaign_families,
    registry_families,
    render_exposition,
)
from repro.campaign.store import STATUSES, CampaignStore, scenario_key
from repro.experiments.availability import AVAILABILITY
from repro.experiments.elastic import ELASTIC_SHRINK
from repro.experiments.storage_tiers import STORAGE_TIERS
from repro.obs.metrics import MetricsRegistry

__all__ = ["EXPERIMENTS", "ObservatoryApp", "ObservatoryServer", "Response",
           "serve", "main"]

#: the store-served experiments; ``/api/tables/<name>`` serves the names
#: each one declares
EXPERIMENTS = (STORAGE_TIERS, AVAILABILITY, ELASTIC_SHRINK)
_TABLES = {name: experiment for experiment in EXPERIMENTS
           for name in experiment.served}


@dataclass
class Response:
    """One computed HTTP response (transport-independent, for tests too)."""

    status: int
    body: bytes
    content_type: str
    etag: Optional[str] = None
    cache_hit: bool = False
    headers: Dict[str, str] = field(default_factory=dict)


def _json_body(payload: object) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode("utf-8")


class ObservatoryApp:
    """Routing + caching logic of the observatory, independent of sockets.

    One instance owns the (thread-shared) store handle, the generation
    cache, and the metrics registry; :meth:`handle` maps a ``GET`` to a
    :class:`Response`.  The HTTP handler below is a thin adapter, so tests
    can drive the app directly or over real HTTP.
    """

    def __init__(self, store: CampaignStore,
                 registry: Optional[MetricsRegistry] = None,
                 title: str = "campaign observatory",
                 poll_s: float = 3.0) -> None:
        self.store = store
        self.registry = registry if registry is not None else MetricsRegistry()
        self.cache = GenerationCache(store, registry=self.registry)
        self.title = title
        self.poll_s = poll_s

    # -- aggregate builders (each runs at most once per store generation) ---------
    def _progress_payload(self) -> bytes:
        return _json_body(campaign_progress(self.store).as_dict())

    def _page(self) -> bytes:
        progress = campaign_progress(self.store)
        return render_progress_html(progress, title=self.title,
                                    poll_s=self.poll_s).encode("utf-8")

    def _metrics_payload(self) -> bytes:
        progress = campaign_progress(self.store)
        families = campaign_families(progress, self.store.benchmark_rows())
        families += registry_families(self.registry)
        return render_exposition(families).encode("utf-8")

    def _results_payload(self, query: Dict[str, List[str]],
                         as_csv: bool) -> bytes:
        def one(name: str, cast=str):
            values = query.get(name)
            if not values:
                return None
            try:
                return cast(values[-1])
            except ValueError:
                raise ValueError(f"query parameter {name!r} must be {cast.__name__}")

        status = one("status") or "done"
        if status not in STATUSES:
            raise ValueError(f"unknown status {status!r}; expected one of {STATUSES}")
        results = stored_results(
            self.store, status=status,
            workload=one("workload"), method=one("method"),
            n_ranks=one("n_ranks", int), seed=one("seed", int),
            cluster_name=one("cluster"), limit=one("limit", int))
        if as_csv:
            return results_to_csv_text(results).encode("utf-8")
        return _json_body({
            "count": len(results),
            "status": status,
            "results": [
                {"key": scenario_key(r.config),
                 "config": _config_dict(r.config),
                 "metrics": r.metrics}
                for r in results
            ],
        })

    def _table_payload(self, name: str) -> bytes:
        experiment = _TABLES[name]
        out = experiment.from_store(self.store)
        return _json_body({"table": table_to_dict(out[experiment.served[name]]),
                           "source_results": len(out["results"])})

    def _bench_payload(self, query: Dict[str, List[str]]) -> bytes:
        names = query.get("name")
        rows = self.store.benchmark_rows(names[-1] if names else None)
        limits = query.get("limit")
        if limits:
            rows = rows[-int(limits[-1]):]
        return _json_body({"count": len(rows), "rows": rows})

    # -- request handling ---------------------------------------------------------
    def handle(self, path: str, query: Dict[str, List[str]],
               accept: str = "", if_none_match: Optional[str] = None) -> Response:
        """Compute the response for one ``GET`` (cache- and ETag-aware)."""
        endpoint = path.rstrip("/") or "/"
        self.registry.counter("server.requests", endpoint=endpoint).inc()
        try:
            return self._route(path, query, accept, if_none_match)
        except ValueError as exc:
            return Response(400, _json_body({"error": str(exc)}), "application/json")
        except (KeyError, TypeError) as exc:
            return Response(400, _json_body(
                {"error": f"{type(exc).__name__}: {exc}"}), "application/json")

    def _route(self, path: str, query: Dict[str, List[str]],
               accept: str, if_none_match: Optional[str]) -> Response:
        path = path.rstrip("/") or "/"
        if path == "/healthz":
            return Response(200, _json_body({
                "status": "ok",
                "db": self.store.path,
                "generation": list(self.cache.generation()),
                "time": time.time(),
            }), "application/json")
        if path == "/":
            return self._cached("page:/", self._page, "text/html; charset=utf-8",
                                if_none_match)
        if path == "/api/progress":
            return self._cached("api:progress", self._progress_payload,
                                "application/json", if_none_match)
        if path == "/metrics":
            return self._cached("metrics:/", self._metrics_payload,
                                "text/plain; version=0.0.4; charset=utf-8",
                                if_none_match)
        if path == "/api/results":
            fmt = (query.get("format") or [None])[-1]
            as_csv = (fmt == "csv") if fmt else ("text/csv" in (accept or ""))
            if fmt not in (None, "csv", "json"):
                raise ValueError(f"unknown format {fmt!r}; expected csv or json")
            key = f"api:results:{_canonical_query(query)}:{'csv' if as_csv else 'json'}"
            return self._cached(
                key, lambda: self._results_payload(query, as_csv),
                "text/csv; charset=utf-8" if as_csv else "application/json",
                if_none_match)
        if path.startswith("/api/tables/"):
            name = path[len("/api/tables/"):]
            if name not in _TABLES:
                return Response(404, _json_body(
                    {"error": f"unknown table {name!r}",
                     "tables": list(_TABLES)}), "application/json")
            return self._cached(f"api:tables:{name}",
                                lambda: self._table_payload(name),
                                "application/json", if_none_match)
        if path == "/api/bench":
            key = f"api:bench:{_canonical_query(query)}"
            return self._cached(key, lambda: self._bench_payload(query),
                                "application/json", if_none_match)
        return Response(404, _json_body(
            {"error": f"no route for {path!r}",
             "routes": ["/", "/healthz", "/api/progress", "/api/results",
                        "/api/bench", "/metrics"]
                       + [f"/api/tables/{n}" for n in _TABLES]}),
            "application/json")

    def _cached(self, key: str, compute, content_type: str,
                if_none_match: Optional[str]) -> Response:
        entry, hit = self.cache.get(key, compute)
        if if_none_match is not None and if_none_match == entry.etag:
            return Response(304, b"", content_type, etag=entry.etag, cache_hit=hit)
        return Response(200, entry.value, content_type, etag=entry.etag,
                        cache_hit=hit)


def _config_dict(config) -> Dict[str, object]:
    from repro.campaign.store import config_to_dict

    return config_to_dict(config)


def _canonical_query(query: Dict[str, List[str]]) -> str:
    return "&".join(f"{k}={','.join(v)}" for k, v in sorted(query.items())
                    if k != "format")


# ----------------------------------------------------------------- HTTP layer
class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-observatory"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._respond(include_body=True)

    def do_HEAD(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._respond(include_body=False)

    def _respond(self, include_body: bool) -> None:
        app: ObservatoryApp = self.server.app  # type: ignore[attr-defined]
        parsed = urlsplit(self.path)
        response = app.handle(
            parsed.path, parse_qs(parsed.query),
            accept=self.headers.get("Accept", ""),
            if_none_match=self.headers.get("If-None-Match"))
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        if response.etag is not None:
            self.send_header("ETag", response.etag)
            self.send_header("Cache-Control", "no-cache")
            self.send_header("X-Cache", "hit" if response.cache_hit else "miss")
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        if include_body and response.body:
            self.wfile.write(response.body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)


class ObservatoryServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`ObservatoryApp`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], app: ObservatoryApp,
                 verbose: bool = False) -> None:
        super().__init__(address, _Handler)
        self.app = app
        self.verbose = verbose

    def serve_in_thread(self) -> threading.Thread:
        """Start ``serve_forever`` on a daemon thread (tests, embedding)."""
        thread = threading.Thread(target=self.serve_forever,
                                  name="observatory", daemon=True)
        thread.start()
        return thread


def serve(db: str, host: str = "127.0.0.1", port: int = 8032,
          title: str = "campaign observatory", poll_s: float = 3.0,
          registry: Optional[MetricsRegistry] = None,
          verbose: bool = False) -> ObservatoryServer:
    """Open ``db`` thread-shared and return a ready (unstarted) server."""
    store = CampaignStore(db, check_same_thread=False)
    app = ObservatoryApp(store, registry=registry, title=title, poll_s=poll_s)
    return ObservatoryServer((host, port), app, verbose=verbose)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serve a campaign store's read-side REST API + observatory.")
    parser.add_argument("--db", required=True, help="campaign store sqlite path")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8032)
    parser.add_argument("--title", default="campaign observatory")
    parser.add_argument("--poll", type=float, default=3.0,
                        help="observatory page poll interval (seconds)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every request to stderr")
    args = parser.parse_args(argv)

    server = serve(args.db, host=args.host, port=args.port, title=args.title,
                   poll_s=args.poll, verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"campaign observatory for {args.db} on http://{host}:{port}/ "
          f"(endpoints: /api/progress /api/results /api/tables/"
          f"{{{','.join(_TABLES)}}} /api/bench /metrics /healthz)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.app.store.close()
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
