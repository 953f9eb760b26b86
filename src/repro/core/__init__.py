"""Group-based checkpoint/restart — the paper's primary contribution.

* :mod:`repro.core.groups` — group definitions (:class:`GroupSet`) and the
  standard configurations used in the evaluation (NORM, GP1, GP4, GP),
* :mod:`repro.core.protocol` — Algorithm 1: coordinated checkpointing within
  a group combined with sender-based logging of inter-group messages,
  piggybacked garbage collection, and the per-group checkpoint procedure,
* :mod:`repro.core.formation` — Algorithm 2: trace-assisted group formation,
* :mod:`repro.core.coordinator` — the mpirun-style checkpoint coordinator
  that propagates checkpoint requests to groups,
* :mod:`repro.core.restart` — restart orchestration: image restore, exchange
  of S/R volumes with out-of-group processes, message replay/skip.
"""

from repro import lazy_exports

_EXPORTS = {
    ".groups": ("GroupSet",),
    ".protocol": ("GroupProtocolFamily", "GroupRankProtocol"),
    ".formation": ("form_groups", "FormationResult", "grouping_quality"),
    ".coordinator": ("CheckpointCoordinator",),
    ".restart": ("simulate_restart", "RestartResult", "replay_volumes"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
