"""Trace records, trace logs and communication matrices.

The paper's group formation is driven by a light-weight MPI tracer whose
output is a stream of *send records* ``(source, destination, size)``.  This
module defines that record, a container with persistence (plain CSV-like
text, so traces can be inspected and diffed), and aggregate views
(pairwise communication matrix, per-channel totals) used both by the group
formation algorithm (Algorithm 2 preprocessing) and by the analysis layer.

Scripts are deterministic, so :func:`script_trace` reads the send records a
failure-free traced run would produce straight off the ranks' op scripts,
without simulating them.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.mpi.collectives import COLLECTIVE_TAG_BASE, COLLECTIVES, schedule_for
from repro.mpi.ops import Compute, Isend, Marker, Op, Recv, Send, SendRecv, Wait


@dataclass(frozen=True)
class TraceRecord:
    """One send operation observed by the tracer.

    ``timestamp`` and ``tag`` are extra context beyond the paper's
    ``(SRC, DST, Z)`` triple; the group-formation preprocessing ignores them.
    """

    src: int
    dst: int
    nbytes: int
    timestamp: float = 0.0
    tag: int = 0

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise ValueError("ranks must be non-negative")
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if self.timestamp < 0:
            raise ValueError("timestamp must be non-negative")


# An unordered process pair, the unit Algorithm 2 aggregates over.
Pair = Tuple[int, int]


def unordered_pair(a: int, b: int) -> Pair:
    """Canonical unordered pair key (smaller rank first)."""
    return (a, b) if a <= b else (b, a)


class TraceLog:
    """A collection of :class:`TraceRecord` with aggregation and persistence."""

    HEADER = "# repro-mpi-trace v1: src dst nbytes timestamp tag"

    def __init__(
        self,
        records: Optional[Iterable[TraceRecord]] = None,
        n_ranks: int = 0,
        truncated: bool = False,
        dropped_records: int = 0,
        max_records: Optional[int] = None,
    ) -> None:
        if max_records is not None and max_records < 0:
            raise ValueError("max_records must be non-negative")
        self._n_ranks = n_ranks
        #: True when the ``max_records`` cap was hit — the trace is a prefix
        #: of the communication, not the whole run.
        self.truncated = truncated
        #: Number of send records that were observed but not stored.
        self.dropped_records = dropped_records
        #: Optional storage cap, enforced by :meth:`append` itself so that
        #: retroactive additions count against it exactly like live ones.
        self.max_records = max_records
        self.records: List[TraceRecord] = []
        if records is not None:
            self.extend(records)

    # -- container protocol -------------------------------------------------
    def append(self, record: TraceRecord) -> bool:
        """Add one record; return whether it was stored.

        When a ``max_records`` cap is set and already reached, the record is
        dropped and counted in :attr:`dropped_records` instead — regardless
        of whether it arrives live from the tracer or retroactively via a
        direct ``append``/``extend`` — so the ``# truncated N`` marker
        written by :meth:`dumps` stays consistent with the stored prefix.
        """
        if self.max_records is not None and len(self.records) >= self.max_records:
            self.dropped_records += 1
            self.truncated = True
            return False
        self.records.append(record)
        return True

    def extend(self, records: Iterable[TraceRecord]) -> int:
        """Add many records; return how many were stored."""
        return sum(1 for record in records if self.append(record))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    # -- aggregate views ------------------------------------------------------
    @property
    def n_ranks(self) -> int:
        """Number of ranks covered (max rank + 1, or the explicit constructor value)."""
        observed = 0
        for rec in self.records:
            observed = max(observed, rec.src + 1, rec.dst + 1)
        return max(observed, self._n_ranks)

    @property
    def total_bytes(self) -> int:
        """Total bytes across all send records."""
        return sum(r.nbytes for r in self.records)

    @property
    def total_messages(self) -> int:
        """Total number of send records."""
        return len(self.records)

    def pair_totals(self) -> Dict[Pair, Tuple[int, int]]:
        """Aggregate per unordered pair: ``{(a, b): (message_count, total_bytes)}``.

        This is exactly the preprocessing step of the paper's Algorithm 2:
        records with the same unordered source/destination pair are merged
        into one tuple carrying the count and total size.
        """
        totals: Dict[Pair, Tuple[int, int]] = {}
        for rec in self.records:
            key = unordered_pair(rec.src, rec.dst)
            count, size = totals.get(key, (0, 0))
            totals[key] = (count + 1, size + rec.nbytes)
        return totals

    def communication_matrix(self, n_ranks: Optional[int] = None) -> np.ndarray:
        """Directed bytes matrix ``M[src, dst]``."""
        n = n_ranks if n_ranks is not None else self.n_ranks
        if n < 1:
            return np.zeros((0, 0), dtype=np.int64)
        mat = np.zeros((n, n), dtype=np.int64)
        for rec in self.records:
            if rec.src < n and rec.dst < n:
                mat[rec.src, rec.dst] += rec.nbytes
        return mat

    def message_count_matrix(self, n_ranks: Optional[int] = None) -> np.ndarray:
        """Directed message-count matrix ``M[src, dst]``."""
        n = n_ranks if n_ranks is not None else self.n_ranks
        if n < 1:
            return np.zeros((0, 0), dtype=np.int64)
        mat = np.zeros((n, n), dtype=np.int64)
        for rec in self.records:
            if rec.src < n and rec.dst < n:
                mat[rec.src, rec.dst] += 1
        return mat

    def bytes_between(self, a: int, b: int) -> int:
        """Total bytes exchanged (both directions) between ranks ``a`` and ``b``."""
        key = unordered_pair(a, b)
        return sum(r.nbytes for r in self.records if unordered_pair(r.src, r.dst) == key)

    # -- persistence ------------------------------------------------------------
    def dumps(self) -> str:
        """Serialise to a plain-text, line-per-record format."""
        buf = io.StringIO()
        buf.write(self.HEADER + "\n")
        buf.write(f"# n_ranks {self.n_ranks}\n")
        if self.truncated:
            buf.write(f"# truncated {self.dropped_records}\n")
        for r in self.records:
            buf.write(f"{r.src} {r.dst} {r.nbytes} {r.timestamp!r} {r.tag}\n")
        return buf.getvalue()

    def save(self, path: Union[str, Path]) -> None:
        """Write the trace to ``path``."""
        Path(path).write_text(self.dumps(), encoding="utf-8")

    @classmethod
    def loads(cls, text: str) -> "TraceLog":
        """Parse a trace produced by :meth:`dumps`."""
        records: List[TraceRecord] = []
        n_ranks = 0
        truncated = False
        dropped = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) >= 2 and parts[0] == "n_ranks":
                    n_ranks = int(parts[1])
                elif parts and parts[0] == "truncated":
                    truncated = True
                    dropped = int(parts[1]) if len(parts) >= 2 else 0
                continue
            fields = line.split()
            if len(fields) != 5:
                raise ValueError(f"malformed trace line {lineno}: {line!r}")
            src, dst, nbytes = int(fields[0]), int(fields[1]), int(fields[2])
            ts, tag = float(fields[3]), int(fields[4])
            records.append(TraceRecord(src=src, dst=dst, nbytes=nbytes, timestamp=ts, tag=tag))
        return cls(records, n_ranks=n_ranks, truncated=truncated, dropped_records=dropped)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TraceLog":
        """Read a trace from ``path``."""
        return cls.loads(Path(path).read_text(encoding="utf-8"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f", truncated ({self.dropped_records} dropped)" if self.truncated else ""
        return f"<TraceLog {len(self.records)} records, {self.total_bytes} bytes{extra}>"


#: op classes that send nothing, matched by exact type as the runtime runs them
_SILENT_OPS = (Compute, Recv, Marker, Wait)

#: every op class :func:`script_trace` reads (the runtime runs exactly these)
SCRIPT_OPS = frozenset((SendRecv, Send, Isend) + COLLECTIVES + _SILENT_OPS)


def script_trace(program: Callable[[int], Iterable[Op]], n_ranks: int) -> TraceLog:
    """The send records of a failure-free run of ``program``, read off its scripts.

    A run that completes executes every op of every rank's script once, and
    each application send is one record: a ``SendRecv``, ``Send`` or
    ``Isend`` gives ``(rank, dst, nbytes, tag)``, and a collective gives one
    record per send of its schedule, tagged ``COLLECTIVE_TAG_BASE + tag``.
    Records are in rank order and carry ``timestamp=0.0``; Algorithm 2 reads
    only per-pair totals, so a formation from this trace equals one from a
    simulated traced run.  Raises what the runtime raises: ``TypeError`` for
    an op class it does not run, ``ValueError`` for a destination outside
    ``[0, n_ranks)``.
    """
    records: List[TraceRecord] = []
    append = records.append
    for rank in range(n_ranks):
        for op in program(rank):
            cls = op.__class__
            if cls is SendRecv:
                sends = ((op.dst, op.send_nbytes, op.tag),)
            elif cls is Send or cls is Isend:
                sends = ((op.dst, op.nbytes, op.tag),)
            elif cls in COLLECTIVES:
                tag = COLLECTIVE_TAG_BASE + op.tag
                sends = tuple((peer, nbytes, tag)
                              for action, peer, nbytes in schedule_for(op, rank, n_ranks)
                              if action == "send")
            elif cls in _SILENT_OPS:
                continue
            else:
                raise TypeError(f"unsupported operation type {cls.__name__}")
            for dst, nbytes, tag in sends:
                if not 0 <= dst < n_ranks:
                    raise ValueError(f"destination rank {dst} out of range")
                append(TraceRecord(rank, dst, nbytes, 0.0, tag))
    return TraceLog(records, n_ranks=n_ranks)
