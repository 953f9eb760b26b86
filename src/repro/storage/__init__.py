"""Multi-level checkpoint storage hierarchy (L1 local / L2 partner / L3 remote).

See :mod:`repro.storage.policy` for the level semantics and
:mod:`repro.storage.hierarchy` for the runtime subsystem.
"""

from repro import lazy_exports

_EXPORTS = {
    ".hierarchy": ("ImageCopy", "ImageRecord", "RestorePlan", "StorageHierarchy",
                   "UnsurvivableFailure"),
    ".policy": ("LEVELS", "PARTNER_CROSS_SWITCH", "PARTNER_SAME_SWITCH", "StoragePolicy",
                "full_hierarchy", "local_only", "partner_replicated"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
