"""Tests for the campaign observatory: generation stamps, the response
cache, and the read-side HTTP service (REST API, Prometheus scrape, live
HTML board)."""

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.analysis.reporting import table_to_dict
from repro.campaign import (
    CampaignStore,
    GenerationCache,
    campaign_progress,
    drain_store,
)
from repro.campaign.executor import get_default_campaign, reset_default_campaign
from repro.campaign.metrics_export import (
    MetricFamily,
    campaign_families,
    parse_exposition,
    registry_families,
    render_exposition,
)
from repro.campaign.server import EXPERIMENTS, ObservatoryApp, serve
from repro.ckpt.scheduler import one_shot
from repro.experiments.availability import AVAILABILITY, concurrency_ablation
from repro.experiments.config import ScenarioConfig
from repro.obs.metrics import MetricsRegistry

RING_OPTS = {"iterations": 6, "compute_seconds": 0.05}

#: every cached endpoint of the service (the warm-cache acceptance set)
CACHED_ENDPOINTS = (
    "/",
    "/api/progress",
    "/api/results",
    "/api/results?format=csv",
    "/api/tables/overhead",
    "/api/tables/survivability",
    "/api/tables/availability",
    "/api/tables/elastic",
    "/api/bench",
    "/metrics",
)


def ring_config(method="NORM", seed=1, **kwargs):
    base = dict(workload="ring", n_ranks=4, method=method, schedule=one_shot(0.2),
                workload_options=dict(RING_OPTS), seed=seed)
    base.update(kwargs)
    return ScenarioConfig(**base)


def seeded_store(path):
    """A drained 2×2 ring grid plus one benchmark row, on disk at ``path``."""
    store = CampaignStore(str(path))
    for method in ("NORM", "GP1"):
        for seed in (1, 2):
            store.add(ring_config(method=method, seed=seed))
    drain_store(store)
    store.record_benchmark("kernel_speed",
                           {"scenario": "ring-4", "events_per_s": 12345.0})
    return store


def http_get(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


# ---------------------------------------------------------- generation stamp
class TestGeneration:
    def test_stable_across_pure_reads(self):
        store = CampaignStore(":memory:")
        store.add(ring_config())
        stamp = store.generation()
        store.counts()
        campaign_progress(store)
        assert store.generation() == stamp

    def test_changes_on_every_lifecycle_transition(self):
        store = CampaignStore(":memory:")
        stamps = [store.generation()]

        def step(label):
            stamp = store.generation()
            assert stamp not in stamps, f"stamp unchanged after {label}"
            stamps.append(stamp)

        key = store.add(ring_config())
        step("add")
        claimed = store.claim(worker="w1")
        assert claimed is not None
        step("claim")
        assert store.mark_done(key, {"makespan": 1.0})
        step("mark_done")
        store.record_benchmark("kernel_speed", {"scenario": "x", "events_per_s": 1.0})
        step("record_benchmark")

    def test_cross_connection_writes_are_visible(self, tmp_path):
        db = str(tmp_path / "gen.sqlite")
        reader = CampaignStore(db)
        writer = CampaignStore(db)
        before = reader.generation()
        writer.add(ring_config())
        assert reader.generation() != before


# ------------------------------------------------------------ response cache
class TestGenerationCache:
    def test_computes_at_most_once_per_generation(self):
        store = CampaignStore(":memory:")
        store.add(ring_config())
        registry = MetricsRegistry()
        cache = GenerationCache(store, registry=registry)
        calls = []

        def compute():
            calls.append(1)
            return b"payload"

        entry1, hit1 = cache.get("k", compute)
        entry2, hit2 = cache.get("k", compute)
        assert (hit1, hit2) == (False, True)
        assert entry1.value == entry2.value == b"payload"
        assert entry1.etag == entry2.etag
        assert len(calls) == 1
        assert cache.miss_count == 1 and cache.hit_count == 1
        assert registry.counter("server.cache.miss").value == 1
        assert registry.counter("server.cache.hit").value == 1

    def test_store_write_invalidates_and_changes_etag(self):
        store = CampaignStore(":memory:")
        cache = GenerationCache(store)
        entry1, _ = cache.get("k", lambda: b"a")
        store.add(ring_config())
        entry2, hit = cache.get("k", lambda: b"b")
        assert not hit
        assert entry2.value == b"b"
        assert entry1.etag != entry2.etag

    def test_independent_keys_and_invalidate(self):
        store = CampaignStore(":memory:")
        cache = GenerationCache(store)
        cache.get("a", lambda: 1)
        cache.get("b", lambda: 2)
        assert len(cache) == 2
        cache.invalidate("a")
        assert len(cache) == 1
        _, hit = cache.get("b", lambda: 3)
        assert hit
        cache.invalidate()
        assert len(cache) == 0


# -------------------------------------------------------- benchmark stamping
class TestBenchmarkStamping:
    def test_rows_are_stamped_with_versions_and_timestamp(self):
        from repro.campaign.results import PAYLOAD_VERSION, simulator_fingerprint

        store = CampaignStore(":memory:")
        store.record_benchmark("kernel_speed",
                               {"scenario": "s", "events_per_s": 10.0})
        (row,) = store.benchmark_rows("kernel_speed")
        payload = row["payload"]
        assert payload["payload_version"] == PAYLOAD_VERSION
        assert payload["sim_version"] == simulator_fingerprint()
        # ISO-8601 UTC, parseable and tz-aware
        from datetime import datetime

        stamp = datetime.fromisoformat(payload["recorded_at_utc"])
        assert stamp.tzinfo is not None

    def test_explicit_stamps_are_not_overwritten(self):
        store = CampaignStore(":memory:")
        store.record_benchmark("b", {"scenario": "s", "events_per_s": 1.0,
                                     "sim_version": "frozen"})
        (row,) = store.benchmark_rows("b")
        assert row["payload"]["sim_version"] == "frozen"


# -------------------------------------------------------- prometheus format
class TestExposition:
    def test_render_and_parse_round_trip(self):
        families = [
            MetricFamily("demo_gauge", "gauge", "a gauge").add(1.5, kind="x"),
            MetricFamily("demo_total", "counter", 'help with "quotes"\nand newline'
                         ).add(3),
        ]
        text = render_exposition(families)
        parsed = parse_exposition(text)
        assert parsed["demo_gauge"]["type"] == "gauge"
        assert parsed["demo_gauge"]["samples"]['kind="x"'] == 1.5
        assert parsed["demo_total"]["samples"][""] == 3.0

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_exposition("no_type_header 1\n")
        with pytest.raises(ValueError):
            parse_exposition("# TYPE x bogus\n")
        with pytest.raises(ValueError):
            parse_exposition("# TYPE x gauge\nx notanumber\n")

    def test_campaign_families_cover_the_store(self):
        store = CampaignStore(":memory:")
        store.add(ring_config())
        drain_store(store)
        store.record_benchmark("kernel_speed",
                               {"scenario": "ring-4", "events_per_s": 7.0})
        progress = campaign_progress(store)
        text = render_exposition(
            campaign_families(progress, store.benchmark_rows()))
        parsed = parse_exposition(text)
        assert parsed["repro_campaign_rows"]["samples"]['status="done"'] == 1.0
        assert parsed["repro_campaign_experiments"]["samples"][""] == 1.0
        assert parsed["repro_campaign_done_fraction"]["samples"][""] == 1.0
        sample = parsed["repro_benchmark_events_per_second"]["samples"]
        assert sample['benchmark="kernel_speed",scenario="ring-4"'] == 7.0

    def test_registry_families_translate_names_and_tags(self):
        registry = MetricsRegistry()
        registry.counter("server.cache.hit").inc(4)
        registry.gauge("queue.depth", worker="w1").set(2)
        registry.histogram("req.seconds").observe(0.5)
        text = render_exposition(registry_families(registry))
        parsed = parse_exposition(text)
        assert parsed["repro_server_cache_hit_total"]["type"] == "counter"
        assert parsed["repro_server_cache_hit_total"]["samples"][""] == 4.0
        assert parsed["repro_queue_depth"]["samples"]['worker="w1"'] == 2.0
        assert parsed["repro_req_seconds_sum"]["samples"][""] == 0.5
        assert parsed["repro_req_seconds_count"]["samples"][""] == 1.0


# ------------------------------------------------------------- http service
@pytest.fixture(scope="module")
def observatory(tmp_path_factory):
    """A live server over a drained 2×2 ring store (module-shared)."""
    db = str(tmp_path_factory.mktemp("obs") / "campaign.sqlite")
    seeded_store(db).close()
    server = serve(db, port=0, poll_s=0.5)
    server.serve_in_thread()
    host, port = server.server_address[:2]
    yield server, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    server.app.store.close()


class TestObservatoryService:
    def test_healthz_reports_generation(self, observatory):
        server, base = observatory
        status, headers, body = http_get(base + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["generation"] == list(server.app.cache.generation())
        assert "ETag" not in headers  # liveness is never cached

    def test_progress_snapshot_is_consistent_json(self, observatory):
        _, base = observatory
        status, headers, body = http_get(base + "/api/progress")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert sum(payload["counts"].values()) == payload["total"] == 4
        assert payload["counts"]["done"] == 4
        assert payload["done_fraction"] == 1.0
        assert not payload["is_empty"]

    def test_every_cached_endpoint_warms_to_hits_and_304(self, observatory):
        server, base = observatory
        cache = server.app.cache
        for path in CACHED_ENDPOINTS:
            status1, headers1, body1 = http_get(base + path)
            assert status1 == 200, path
            etag = headers1["ETag"]
            misses_between = cache.miss_count
            status2, headers2, body2 = http_get(
                base + path, {"If-None-Match": etag})
            # the second, conditional request: 304, no body, zero new misses
            assert status2 == 304, path
            assert body2 == b"" and headers2["ETag"] == etag, path
            assert headers2["X-Cache"] == "hit", path
            assert cache.miss_count == misses_between, path
            # unconditional re-read serves the identical cached body
            status3, headers3, body3 = http_get(base + path)
            assert (status3, body3) == (200, body1), path
            assert headers3["X-Cache"] == "hit", path
            assert cache.miss_count == misses_between, path

    def test_results_json_and_filters(self, observatory):
        _, base = observatory
        _, _, body = http_get(base + "/api/results")
        payload = json.loads(body)
        assert payload["count"] == 4
        assert {r["config"]["method"] for r in payload["results"]} \
            == {"NORM", "GP1"}
        assert all(r["metrics"]["makespan"] > 0 for r in payload["results"])
        _, _, body = http_get(base + "/api/results?method=NORM&seed=1")
        payload = json.loads(body)
        assert payload["count"] == 1
        assert payload["results"][0]["config"]["seed"] == 1

    def test_results_csv_negotiation(self, observatory):
        _, base = observatory
        status, headers, body = http_get(base + "/api/results?format=csv")
        assert status == 200
        assert headers["Content-Type"].startswith("text/csv")
        lines = body.decode().strip().splitlines()
        assert lines[0].startswith("workload,")
        assert len(lines) == 1 + 4
        # Accept-header negotiation reaches the same representation
        _, accept_headers, accept_body = http_get(
            base + "/api/results", {"Accept": "text/csv"})
        assert accept_headers["Content-Type"].startswith("text/csv")
        assert accept_body == body

    def test_bench_rows_are_served_with_stamps(self, observatory):
        _, base = observatory
        status, _, body = http_get(base + "/api/bench?name=kernel_speed")
        assert status == 200
        payload = json.loads(body)
        assert payload["count"] == 1
        row = payload["rows"][0]
        assert row["payload"]["events_per_s"] == 12345.0
        assert "sim_version" in row["payload"]
        assert "recorded_at_utc" in row["payload"]

    def test_table_endpoints_have_table_shape(self, observatory):
        _, base = observatory
        for name in ("overhead", "survivability", "availability", "elastic"):
            status, _, body = http_get(base + f"/api/tables/{name}")
            assert status == 200, name
            payload = json.loads(body)
            assert set(payload) == {"table", "source_results"}
            assert set(payload["table"]) == {"title", "columns", "rows"}
            # the ring store holds no experiment-family rows
            assert payload["source_results"] == 0

    def test_metrics_scrape_parses_and_covers_the_campaign(self, observatory):
        _, base = observatory
        status, headers, body = http_get(base + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        parsed = parse_exposition(body.decode())
        assert parsed["repro_campaign_rows"]["samples"]['status="done"'] == 4.0
        assert parsed["repro_campaign_done_fraction"]["samples"][""] == 1.0
        bench = parsed["repro_benchmark_events_per_second"]["samples"]
        assert bench['benchmark="kernel_speed",scenario="ring-4"'] == 12345.0
        # the server's own economy is on the scrape
        assert "repro_server_cache_hit_total" in parsed
        assert "repro_server_cache_miss_total" in parsed
        assert "repro_server_requests_total" in parsed

    def test_html_board_polls_the_progress_endpoint(self, observatory):
        _, base = observatory
        status, headers, body = http_get(base + "/")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        page = body.decode()
        assert "campaign observatory" in page
        assert "/api/progress" in page and "location.reload" in page
        assert "100%" in page  # fully drained store

    def test_head_requests_carry_headers_without_body(self, observatory):
        _, base = observatory
        request = urllib.request.Request(base + "/api/progress", method="HEAD")
        with urllib.request.urlopen(request, timeout=30) as resp:
            assert resp.status == 200
            assert resp.headers["ETag"]
            assert resp.read() == b""

    def test_unknown_routes_and_bad_params(self, observatory):
        _, base = observatory
        status, _, body = http_get(base + "/api/tables/nope")
        assert status == 404
        assert "overhead" in json.loads(body)["tables"]
        status, _, _ = http_get(base + "/nope")
        assert status == 404
        status, _, body = http_get(base + "/api/results?limit=bogus")
        assert status == 400
        assert "limit" in json.loads(body)["error"]
        status, _, _ = http_get(base + "/api/results?status=bogus")
        assert status == 400
        status, _, _ = http_get(base + "/api/results?format=xml")
        assert status == 400

    def test_external_write_rolls_the_etag(self, tmp_path):
        db = str(tmp_path / "roll.sqlite")
        store = CampaignStore(db)
        store.add(ring_config(seed=1))
        drain_store(store)
        store.close()
        server = serve(db, port=0)
        server.serve_in_thread()
        base = "http://%s:%d" % server.server_address[:2]
        try:
            _, headers1, _ = http_get(base + "/api/progress")
            # a different connection (an external worker) grows the store
            writer = CampaignStore(db)
            writer.add(ring_config(seed=2))
            writer.close()
            status, headers2, body = http_get(
                base + "/api/progress", {"If-None-Match": headers1["ETag"]})
            assert status == 200  # not 304: the store moved on
            assert headers2["ETag"] != headers1["ETag"]
            assert headers2["X-Cache"] == "miss"
            assert json.loads(body)["counts"]["pending"] == 1
        finally:
            server.shutdown()
            server.server_close()
            server.app.store.close()


# --------------------------------------------- served tables == CLI tables
#: a small grid per declared experiment, keyed by its stamp
SMALL_GRIDS = {
    "storage-tiers": dict(methods=("GP1",), policies=("L1", "L1+L2"),
                          failures=("none", "node-crash"), seeds=(0,)),
    "availability": dict(methods=("NORM", "GP1"), mtbf_per_node_s=(100.0, 50.0),
                         spare_counts=(0,), seeds=(0,)),
    "elastic-shrink": dict(workloads=("halo2d",), methods=("GP4",)),
}


class TestServedTablesValueEqual:
    @pytest.fixture(scope="class", params=EXPERIMENTS, ids=lambda e: e.stamp)
    def sweep(self, request):
        experiment = request.param
        reset_default_campaign()
        out = experiment.run(**SMALL_GRIDS[experiment.stamp])
        yield experiment, out, get_default_campaign().store
        reset_default_campaign()

    def test_from_store_tables_match_experiment_tables(self, sweep):
        experiment, out, store = sweep
        served = experiment.from_store(store)
        assert len(served["results"]) == len(out["results"])
        for key in experiment.served.values():
            assert table_to_dict(served[key]) == table_to_dict(out[key])

    def test_http_served_table_matches_experiment_table(self, sweep):
        experiment, out, store = sweep
        app = ObservatoryApp(store)
        for name, key in experiment.served.items():
            response = app.handle(f"/api/tables/{name}", {})
            assert response.status == 200
            payload = json.loads(response.body)
            assert payload["table"] == table_to_dict(out[key])
            assert payload["source_results"] == len(out["results"])


@pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda e: e.stamp)
def test_every_config_carries_the_stamp(experiment):
    # from_store selects rows by stamp: an unstamped config would never be served
    for grid in ({}, SMALL_GRIDS[experiment.stamp]):
        configs = experiment.configs(**grid)
        assert configs
        assert {c.cluster.name for c in configs} == {experiment.stamp}


def test_unknown_table_lists_the_declared_names():
    declared = [name for e in EXPERIMENTS for name in e.served]
    assert declared == ["overhead", "survivability", "availability", "elastic"]
    response = ObservatoryApp(CampaignStore()).handle("/api/tables/nope", {})
    assert response.status == 404
    assert json.loads(response.body)["tables"] == declared


class TestAvailabilityFromStore:
    @pytest.fixture
    def store(self):
        reset_default_campaign()
        yield get_default_campaign().store
        reset_default_campaign()

    def test_grid_and_ablation_store_serves_the_grid(self, store):
        # the ablation's two cells sit on the grid's (GP4, 50 s, 0) row
        out = AVAILABILITY.run(methods=("NORM", "GP4"),
                               mtbf_per_node_s=(100.0, 50.0),
                               spare_counts=(0,), seeds=(0,))
        concurrency_ablation(seeds=(0,))
        served = AVAILABILITY.from_store(store)
        assert table_to_dict(served["table"]) == table_to_dict(out["table"])
        response = ObservatoryApp(store).handle("/api/tables/availability", {})
        assert json.loads(response.body)["table"] == table_to_dict(out["table"])

    def test_grids_differing_in_max_failures_raise(self, store):
        grid = dict(methods=("GP1",), mtbf_per_node_s=(50.0,),
                    spare_counts=(0,), seeds=(0,))
        AVAILABILITY.run(max_failures=2, **grid)
        AVAILABILITY.run(max_failures=3, **grid)
        with pytest.raises(ValueError, match=r"failure\.max_failures"):
            AVAILABILITY.from_store(store)
        response = ObservatoryApp(store).handle("/api/tables/availability", {})
        assert response.status == 400
        assert "failure.max_failures" in json.loads(response.body)["error"]


# --------------------------------------------- read-while-write (satellite 3)
class TestConcurrentReadWhileWrite:
    def test_snapshots_stay_consistent_and_writer_finishes(self, tmp_path):
        db = str(tmp_path / "live.sqlite")
        store = CampaignStore(db)
        total = 0
        for method in ("NORM", "GP1"):
            for seed in (1, 2):
                store.add(ring_config(method=method, seed=seed))
                total += 1
        store.close()

        server = serve(db, port=0)
        server.serve_in_thread()
        base = "http://%s:%d" % server.server_address[:2]

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep \
            + env.get("PYTHONPATH", "")
        worker = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from repro.campaign import CampaignStore, drain_store; "
             f"n = drain_store(CampaignStore({db!r}), worker='external'); "
             "sys.exit(0 if n else 3)"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)

        snapshots = []
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                _, _, body = http_get(base + "/api/progress")
                payload = json.loads(body)
                # internal consistency: counts always sum to the total
                assert sum(payload["counts"].values()) == payload["total"]
                assert payload["total"] == total
                snapshots.append(payload["counts"]["done"])
                _, _, scrape = http_get(base + "/metrics")
                parsed = parse_exposition(scrape.decode())
                rows = parsed["repro_campaign_rows"]["samples"]
                assert sum(rows.values()) == float(total)
                if payload["counts"]["done"] == total:
                    break
                time.sleep(0.05)
            out, err = worker.communicate(timeout=120)
            assert worker.returncode == 0, (out, err)
            # the readers never blocked the writer: the grid fully drained
            _, _, body = http_get(base + "/api/progress")
            assert json.loads(body)["counts"]["done"] == total
            assert snapshots, "no snapshot was taken while draining"
            assert all(b >= a for a, b in zip(snapshots, snapshots[1:]))
        finally:
            worker.kill()
            server.shutdown()
            server.server_close()
            server.app.store.close()
