"""repro — reproduction of "Scalable Group-based Checkpoint/Restart for
Large-Scale Message-passing Systems" (Ho, Wang, Lau — IPDPS 2008).

The package is organised bottom-up:

* :mod:`repro.sim` — a generator-based discrete-event simulation kernel,
* :mod:`repro.cluster` — nodes, network, storage and failure models,
* :mod:`repro.mpi` — an MPI-like runtime, collectives, and the trace/tracer,
* :mod:`repro.ckpt` — checkpoint substrates (BLCR model, sender logs) and the
  baseline protocols (blocking coordinated / Chandy–Lamport),
* :mod:`repro.core` — the paper's contribution: the group-based protocol,
  trace-assisted group formation, the checkpoint coordinator and restart,
* :mod:`repro.recovery` — recovery orchestration: concurrent group
  recoveries, failure-during-recovery supersession, spare-node placement,
* :mod:`repro.workloads` — HPL / NPB CG / NPB SP communication patterns,
* :mod:`repro.analysis` — metrics and report builders,
* :mod:`repro.experiments` — one entry point per paper figure/table,
* :mod:`repro.campaign` — persistent, parallel, resumable experiment sweeps
  (parameter grids → sqlite store → worker pool → exports).

Every package resolves its public names on first use (PEP 562): ``import
repro`` loads no submodule, and ``from repro.campaign import CampaignStore``
loads only the modules ``CampaignStore`` needs.  ``python -X importtime -c
"import repro"`` shows what a command loads.
"""

import importlib
from typing import Any, Callable, Dict, List, Sequence, Tuple

__version__ = "1.2.0"


def lazy_exports(namespace: Dict[str, Any], table: Dict[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` of a package whose public
    names resolve on first use.

    ``namespace`` is the package's ``globals()``; ``table`` maps each
    submodule, relative to the package (``".engine"``), to the names it
    exports.  The first lookup of a name imports its submodule and caches
    the value in ``namespace``, so later lookups never reach ``__getattr__``.
    """
    package = namespace["__name__"]
    source = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = source[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(importlib.import_module(module, package), name)
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | source.keys())

    return list(source), __getattr__, __dir__


_EXPORTS = {
    ".sim": ("Simulator", "RandomStreams"),
    ".cluster": ("Cluster", "ClusterSpec", "GIDEON_300"),
    ".mpi": ("MpiRuntime", "Tracer", "TraceLog"),
    ".ckpt": ("ProtocolConfig", "CheckpointSchedule", "one_shot", "periodic"),
    ".ckpt.presets": ("norm_family", "gp1_family", "gp4_family", "gp_family",
                      "gp_family_from_trace", "vcl_family"),
    ".core": ("GroupSet", "GroupProtocolFamily", "form_groups", "CheckpointCoordinator",
              "simulate_restart"),
    ".recovery": ("RecoveryManager", "SparePool"),
    ".workloads": ("HplWorkload", "CgWorkload", "SpWorkload"),
    ".campaign": ("Campaign", "CampaignStore", "ParameterGrid"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
