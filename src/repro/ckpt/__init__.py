"""Checkpoint/restart substrates and baseline protocols.

Contents:

* :mod:`repro.ckpt.base` — stage names, per-checkpoint / per-restart records,
  the protocol interfaces, and protocol configuration,
* :mod:`repro.ckpt.blcr` — a BLCR-like system-level checkpointer model
  (image dump/restore cost),
* :mod:`repro.ckpt.logstore` — the sender-based message log used for
  inter-group (and uncoordinated) logging,
* :mod:`repro.ckpt.chandy_lamport` — the MPICH-VCL-style non-blocking
  coordinated protocol,
* :mod:`repro.ckpt.scheduler` — checkpoint request scheduling (one-shot and
  fixed-interval),
* :mod:`repro.ckpt.presets` — convenience constructors for the paper's four
  configurations (NORM, GP, GP1, GP4) and VCL.
"""

from repro import lazy_exports

_EXPORTS = {
    ".base": ("STAGE_LOCK_MPI", "STAGE_COORDINATION", "STAGE_CHECKPOINT", "STAGE_FINALIZE",
              "STAGES", "CheckpointRequest", "CheckpointRecord", "RestartRecord",
              "CheckpointSnapshot", "ResumePoint", "ProtocolConfig", "RankProtocol",
              "ProtocolFamily"),
    ".blcr": ("BlcrModel",),
    ".logstore": ("SenderLog", "LogEntry"),
    ".scheduler": ("CheckpointSchedule", "one_shot", "periodic"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
