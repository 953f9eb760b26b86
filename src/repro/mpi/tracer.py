"""Light-weight MPI communication tracer.

Mirrors the paper's tracer library: it is "linked" with the application (here:
attached to the runtime), observes every application-level send, and produces
a :class:`~repro.mpi.trace.TraceLog` that the group-formation algorithm
analyses.  The tracer can optionally charge a (tiny) per-record overhead to
the sender, so the cost of tracing itself can be studied; the paper describes
the tracer as light-weight and subsequent production runs drop it entirely.

The experiment runner does not simulate a traced run: scripts are
deterministic, so :func:`~repro.mpi.trace.script_trace` reads the same send
records off them.  This runtime hook is the reference that script trace is
tested against (``tests/test_script_trace.py``).
"""

from __future__ import annotations

from typing import Optional

from repro.mpi.messages import Message
from repro.mpi.trace import TraceLog, TraceRecord


class Tracer:
    """Observer of application sends producing a :class:`TraceLog`.

    Parameters
    ----------
    overhead_per_record_s:
        Simulated time charged to the sender for writing one trace record
        (an in-memory append in the real tracer — effectively negligible).
    max_records:
        Optional safety cap; tracing stops after this many records so that
        very long runs can still be traced cheaply.  The group formation
        only needs a representative window of the execution.  The cap is
        carried by the :class:`TraceLog` itself (records added to the log
        retroactively count against it too); when hit, the log is marked
        ``truncated`` and carries the number of ``dropped_records``, so
        downstream consumers can tell a complete trace from a prefix.
    """

    def __init__(
        self,
        overhead_per_record_s: float = 0.0,
        max_records: Optional[int] = None,
    ) -> None:
        if overhead_per_record_s < 0:
            raise ValueError("overhead_per_record_s must be non-negative")
        if max_records is not None and max_records < 0:
            raise ValueError("max_records must be non-negative")
        self.overhead_per_record_s = overhead_per_record_s
        self.max_records = max_records
        self.log = TraceLog(max_records=max_records)
        self.enabled = True

    @property
    def dropped_records(self) -> int:
        """Records observed but not stored (the log's counter is canonical)."""
        return self.log.dropped_records

    def on_send(self, message: Message, timestamp: float) -> float:
        """Record an application send; return the overhead to charge the sender."""
        if not self.enabled or not message.is_app:
            return 0.0
        stored = self.log.append(
            TraceRecord(
                src=message.src,
                dst=message.dst,
                nbytes=message.nbytes,
                timestamp=timestamp,
                tag=message.tag,
            )
        )
        return self.overhead_per_record_s if stored else 0.0

    def disable(self) -> None:
        """Stop recording (subsequent sends are not traced)."""
        self.enabled = False

    def enable(self) -> None:
        """Resume recording."""
        self.enabled = True

    def reset(self) -> None:
        """Drop all recorded data (the ``max_records`` cap is kept)."""
        self.log = TraceLog(max_records=self.max_records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<Tracer {state} records={len(self.log)} dropped={self.dropped_records}>"
