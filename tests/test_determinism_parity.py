"""Determinism parity for the kernel fast path.

The fast-path refactor must be invisible in simulated results:

* every QUICK parity scenario, run on the (default) fast path, reproduces the
  committed golden metrics bit-for-bit — the golden file was generated by the
  pre-refactor seed kernel (``tools/make_parity_golden.py``),
* forcing the full coroutine model (``REPRO_SIM_FASTPATH=0``) yields the same
  metrics *and* an exactly accounted event count:
  ``slow.processed_events == fast.processed_events + fast.stats.events_elided``,
* the closed-form ``Network.transfer`` equals the coroutine model's completion
  time exactly when uncontended, and the NIC-hold machinery preserves queue
  times under contention.
"""

import json
import os

import numpy
import pytest

from repro.cluster.network import FAST_ETHERNET, FAST_PATH_ENV, Network
from repro.experiments import runner
from repro.experiments.parity import parity_metrics, quick_parity_configs, scenario_label
from repro.sim.engine import Simulator

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "quick_parity_golden.json")
NUMPY_VERSION_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_numpy_version.txt")
CONFIGS = quick_parity_configs()

#: per-label cache of (metrics, processed_events, events_elided) per path so
#: each scenario is simulated at most once per path across the whole module
_RUNS = {}


def _run(config, fast: bool):
    label = (scenario_label(config), fast)
    if label in _RUNS:
        return _RUNS[label]
    previous = os.environ.get(FAST_PATH_ENV)
    os.environ[FAST_PATH_ENV] = "1" if fast else "0"
    try:
        # fresh trace/group caches, so each path derives its own formation
        runner.clear_caches()
        result = runner.run_scenario(config)
    finally:
        if previous is None:
            os.environ.pop(FAST_PATH_ENV, None)
        else:
            os.environ[FAST_PATH_ENV] = previous
    sim = result.app.contexts[0].sim
    _RUNS[label] = (
        parity_metrics(result),
        sim.processed_events,
        sim.stats.events_elided,
        sim.stats.as_dict(),
    )
    return _RUNS[label]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _numpy_mismatch() -> str:
    """Names a numpy other than the goldens' own: its random streams may differ."""
    with open(NUMPY_VERSION_PATH) as fh:
        recorded = fh.read().strip()
    if recorded == numpy.__version__:
        return ""
    return f"goldens generated with numpy {recorded}, this run has numpy {numpy.__version__}"


@pytest.mark.parametrize("config", CONFIGS, ids=scenario_label)
def test_fast_path_matches_pre_refactor_golden(config, golden):
    """Default (fast) runs reproduce the seed kernel's metrics bit-for-bit."""
    metrics, _, elided, stats = _run(config, fast=True)
    expected = golden[scenario_label(config)]["metrics"]
    assert metrics == expected, _numpy_mismatch()
    # the fast path must actually engage, not vacuously agree
    assert elided > 0
    assert stats["fastpath_tx"] + stats["fastpath_rx"] + stats["fastpath_local"] > 0


@pytest.mark.parametrize("config", CONFIGS, ids=scenario_label)
def test_slow_path_matches_golden_and_event_accounting(config, golden):
    """The forced coroutine model agrees bit-for-bit, event-for-event."""
    slow_metrics, slow_events, slow_elided, _ = _run(config, fast=False)
    fast_metrics, fast_events, fast_elided, _ = _run(config, fast=True)
    assert slow_metrics == golden[scenario_label(config)]["metrics"], _numpy_mismatch()
    assert slow_metrics == fast_metrics
    # the slow path elides nothing, and every event the fast path skipped is
    # accounted for exactly
    assert slow_elided == 0
    assert slow_events == fast_events + fast_elided


@pytest.mark.parametrize("config", CONFIGS, ids=scenario_label)
def test_inbox_health_counters_match_across_paths(config):
    """Inbox wildcard, scan and peak-bucket counts follow the simulated
    message order alone, so both network models report the same values."""
    *_, slow_stats = _run(config, fast=False)
    *_, fast_stats = _run(config, fast=True)
    for name in ("inbox_wildcard_gets", "inbox_buckets_scanned", "inbox_peak_buckets"):
        assert slow_stats[name] == fast_stats[name], name


def _transfer_elapsed(fast: bool, nbytes: int = 500_000) -> float:
    sim = Simulator()
    net = Network(sim, FAST_ETHERNET, 2, fast_path=fast)

    def proc():
        yield from net.transfer(0, 1, nbytes)
        return sim.now

    return sim.run_until_complete(sim.process(proc()))


def test_transfer_closed_form_equals_coroutine_uncontended():
    """Contention-free closed-form time == coroutine time, bit-for-bit."""
    for nbytes in (0, 1, 1000, 500_000, 10_000_000):
        assert _transfer_elapsed(True, nbytes) == _transfer_elapsed(False, nbytes)


def test_transfer_contended_equal_times_under_both_paths():
    """A NIC contention storm resolves to identical completion times."""

    def storm(fast: bool):
        sim = Simulator()
        net = Network(sim, FAST_ETHERNET, 3, fast_path=fast)
        done = []

        def sender(dst, nbytes, delay):
            yield sim.timeout(delay)
            yield from net.transfer(0, dst, nbytes)
            done.append((dst, nbytes, sim.now))

        # overlapping transfers from one node: TX NIC contention, mixed sizes
        for i, (dst, nbytes, delay) in enumerate(
            [(1, 400_000, 0.0), (2, 100_000, 0.001), (1, 50_000, 0.001), (2, 800_000, 0.002)]
        ):
            sim.process(sender(dst, nbytes, delay))
        sim.run()
        return done

    assert storm(True) == storm(False)


def test_fast_path_env_toggle_controls_network_default(monkeypatch):
    sim = Simulator()
    monkeypatch.setenv(FAST_PATH_ENV, "0")
    assert Network(sim, FAST_ETHERNET, 1).fast_path is False
    monkeypatch.delenv(FAST_PATH_ENV)
    assert Network(sim, FAST_ETHERNET, 1).fast_path is True
    assert Network(sim, FAST_ETHERNET, 1, fast_path=False).fast_path is False
