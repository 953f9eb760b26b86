"""The kernel speed gate of ``benchmarks/test_kernel_speed.py``.

The gate compares saved ``--json`` runs of a change (``--load``) with saved
runs of its parent (``--against``): each side is reduced to its median per
scenario, and a scenario fails when the change's median over the parent's is
below ``1 - tolerance``.  The baseline's absolute numbers are only printed.
These tests drive ``main()`` on synthetic payload files, so no scenario runs.
"""

import importlib.util
import json
import os

import pytest

_CLI_PATH = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "test_kernel_speed.py")
_spec = importlib.util.spec_from_file_location("kernel_speed_cli", _CLI_PATH)
kernel_speed = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernel_speed)

METRIC = "equivalent_events_per_s"


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _runs(tmp_path, side, values_per_run):
    """One ``--json`` file per run; ``values_per_run`` maps scenario -> metric."""
    return [_write(tmp_path, f"{side}-{i}.json",
                   [{"scenario": name, METRIC: value} for name, value in run.items()])
            for i, run in enumerate(values_per_run)]


@pytest.fixture
def baseline(tmp_path):
    # absolute numbers far above every synthetic run: they must never gate
    return _write(tmp_path, "baseline.json", {
        "enforce": True, "tolerance": 0.3, "metric": METRIC,
        "scenarios": {"a": 1e9, "b": 1e9},
    })


def _gate(tmp_path, baseline, change, parent):
    return kernel_speed.main(["--load", *_runs(tmp_path, "change", change),
                              "--against", *_runs(tmp_path, "parent", parent),
                              "--baseline", baseline])


def test_a_scenario_below_the_band_fails(tmp_path, baseline):
    assert _gate(tmp_path, baseline, [{"a": 100.0, "b": 69.0}], [{"a": 100.0, "b": 100.0}]) == 1


def test_scenarios_inside_the_band_pass(tmp_path, baseline):
    assert _gate(tmp_path, baseline, [{"a": 71.0, "b": 150.0}], [{"a": 100.0, "b": 100.0}]) == 0


def test_a_scenario_the_parent_lacks_does_not_gate(tmp_path, baseline):
    assert _gate(tmp_path, baseline, [{"a": 100.0, "new": 1.0}], [{"a": 100.0}]) == 0


def test_each_side_is_reduced_to_its_median(tmp_path, baseline):
    # medians 95 vs 100 pass; a mean (68.3 vs 400) or the first file
    # alone (10 vs 100) would fail
    change = [{"a": 10.0}, {"a": 95.0}, {"a": 100.0}]
    parent = [{"a": 100.0}, {"a": 100.0}, {"a": 1000.0}]
    assert _gate(tmp_path, baseline, change, parent) == 0
    # and the median is what fails: 60 vs 100
    change = [{"a": 60.0}, {"a": 60.0}, {"a": 1000.0}]
    assert _gate(tmp_path, baseline, change, parent) == 1


def test_the_baseline_numbers_never_gate(tmp_path, baseline):
    (change,) = _runs(tmp_path, "change", [{"a": 1.0, "b": 1.0}])
    assert kernel_speed.main(["--load", change, "--baseline", baseline]) == 0


def test_an_unenforced_baseline_turns_the_gate_off(tmp_path):
    lax = _write(tmp_path, "lax.json", {"enforce": False, "tolerance": 0.3,
                                       "metric": METRIC, "scenarios": {}})
    assert _gate(tmp_path, lax, [{"a": 1.0}], [{"a": 100.0}]) == 0
