"""MPI-like message-passing runtime on top of the discrete-event engine.

The runtime executes one *operation script* (a generator of
:class:`~repro.mpi.ops.Op` objects) per rank, moving messages through the
cluster's network model.  Checkpoint protocols hook into the runtime at
exactly the points a real MPI checkpointing layer does: on send, on message
arrival, and at operation boundaries (where checkpoint signals are honoured).

Public pieces:

* :mod:`repro.mpi.messages` — message records and channel accounting,
* :mod:`repro.mpi.ops` — the operation vocabulary of application scripts,
* :mod:`repro.mpi.collectives` — point-to-point schedules for collectives,
* :mod:`repro.mpi.runtime` — :class:`MpiRuntime` and :class:`RankContext`,
* :mod:`repro.mpi.tracer` — the light-weight communication tracer,
* :mod:`repro.mpi.trace` — trace records, logs, communication matrices and
  :func:`~repro.mpi.trace.script_trace`, the send records read off the scripts.
"""

from repro import lazy_exports

_EXPORTS = {
    ".messages": ("Message", "MessageKind", "ChannelAccount"),
    ".ops": ("Op", "Compute", "Send", "Recv", "SendRecv", "Isend", "Wait", "Barrier", "Bcast",
             "Reduce", "Allreduce", "Allgather", "Marker"),
    ".trace": ("TraceRecord", "TraceLog", "script_trace"),
    ".tracer": ("Tracer",),
    ".runtime": ("MpiRuntime", "RankContext", "ApplicationResult"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
