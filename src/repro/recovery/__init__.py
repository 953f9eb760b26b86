"""Recovery orchestration subsystem.

Owns the failure lifecycle end to end: concurrent per-group recoveries for
disjoint failures, abort-and-restart when a failure lands during an in-flight
recovery, and topology-aware restart-on-spare placement.  See
:class:`RecoveryManager` for the scheduling rules and
:class:`SparePool` for placement.
"""

from repro import lazy_exports

_EXPORTS = {
    ".manager": ("RecoveryManager",),
    ".spare": ("SparePlacement", "SparePool"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
