"""What importing repro loads: package names resolve on first use.

Every check runs in a fresh interpreter, so what it sees in ``sys.modules``
does not depend on which tests ran before it.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _python(*args):
    """Run ``python *args`` with this checkout's ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def _output(code):
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_repro_loads_no_submodule():
    loaded = _output("import json, sys, repro\n"
                     "print(json.dumps(sorted(sys.modules)))")
    assert [m for m in loaded if m.split(".")[0] == "repro"] == ["repro"]


_BUILD_RECOVER_CONFIG = """
import dataclasses, json, sys
from repro.ckpt import periodic
from repro.cluster import GIDEON_300
from repro.experiments import ScenarioConfig
from repro.experiments.config import FailureSpec
from repro.storage import full_hierarchy

cluster = dataclasses.replace(GIDEON_300, n_nodes=66, storage_policy=full_hierarchy())
ScenarioConfig(workload="halo2d", n_ranks=64, method="GP", schedule=periodic(2.0),
               cluster=cluster,
               failure=FailureSpec(mtbf_per_node_s=256, n_spares=2, elastic=True))
print(json.dumps(sorted(sys.modules)))
"""


def test_building_a_scenario_config_loads_neither_numpy_nor_the_simulator_nor_the_store():
    loaded = _output(_BUILD_RECOVER_CONFIG)
    heavy = [m for m in loaded
             if m in ("numpy", "sqlite3", "repro.mpi.runtime", "repro.experiments.runner")
             or m.split(".")[:2] == ["repro", "campaign"]]
    assert heavy == []


_CHECK_EVERY_EXPORT = """
import importlib, json, pkgutil
import repro

packages = ["repro"] + ["repro." + m.name for m in pkgutil.iter_modules(repro.__path__)
                        if m.ispkg]
listed = {name: dir(importlib.import_module(name)) for name in packages}  # none resolved yet
problems = []
for name in packages:
    star = {}
    exec("from %s import *" % name, star)
    package = importlib.import_module(name)
    declared = [export for exports in package._EXPORTS.values() for export in exports]
    if sorted(package.__all__) != sorted(declared):
        problems.append("%s: __all__ is not the table's names, each once" % name)
    for module, exports in package._EXPORTS.items():
        owner = importlib.import_module(module, name)
        for export in exports:
            value = getattr(owner, export)
            if star.get(export, star) is not value:
                problems.append("%s: import * binds %s wrongly" % (name, export))
            if getattr(package, export) is not value:
                problems.append("%s.%s is not %s%s.%s" % (name, export, name, module, export))
            if vars(package).get(export, vars) is not value:
                problems.append("%s: %s is not cached once resolved" % (name, export))
            if export not in listed[name]:
                problems.append("%s: %s missing from dir()" % (name, export))
    if hasattr(package, "no_such_export"):
        problems.append("%s: an undeclared name resolves" % name)
print(json.dumps({"packages": len(packages), "problems": problems}))
"""


def test_every_package_export_is_its_submodules_object():
    report = _output(_CHECK_EVERY_EXPORT)
    assert report["problems"] == []
    assert report["packages"] == 13


def test_dashboard_runs_as_main_without_a_runpy_warning():
    proc = _python("-W", "error::RuntimeWarning", "-m", "repro.campaign.dashboard", "--help")
    assert proc.returncode == 0, proc.stderr
