"""Algorithm 2 — trace-assisted group formation.

The algorithm takes the send records of an MPI trace, aggregates them per
unordered process pair, sorts the pairs by total size (then message count)
in descending order, and greedily merges pairs into groups subject to a
maximum group size ``G`` (default ⌈√n⌉).  Unrelated processes are never
forced into the same group, so the resulting groups may be smaller than
``G`` and of unequal sizes — exactly the behaviour the paper describes.

The merge rules are implemented verbatim from the paper's pseudocode:

* neither endpoint grouped yet → the pair becomes a new group,
* one endpoint grouped → merge the pair into that group if the size allows,
* both endpoints in the same group → nothing to do (traffic is accounted),
* both endpoints in different groups → merge the two groups if the combined
  size allows, otherwise the tuple is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.groups import GroupSet, default_max_group_size, intra_group_traffic_fraction
from repro.mpi.trace import TraceLog


@dataclass
class _WorkingGroup:
    """Mutable group accumulator used while the algorithm runs."""

    members: set = field(default_factory=set)
    messages: int = 0
    bytes: int = 0


@dataclass(frozen=True)
class FormationResult:
    """Outcome of a group-formation run.

    Attributes
    ----------
    groupset:
        The resulting partition (every rank covered; unmatched ranks are
        singletons).
    max_group_size:
        The ``G`` bound that was applied.
    intra_fraction:
        Fraction of traced bytes that stay within a group (higher = fewer
        logged messages).
    pair_count:
        Number of distinct communicating pairs seen in the trace.
    merged_pairs / skipped_pairs:
        How many pairs were absorbed into groups vs skipped because merging
        would have exceeded ``G``.
    """

    groupset: GroupSet
    max_group_size: int
    intra_fraction: float
    pair_count: int
    merged_pairs: int
    skipped_pairs: int

    def describe(self) -> str:
        """One-line summary for reports."""
        return (
            f"{self.groupset.describe()}; G={self.max_group_size}, "
            f"intra-group traffic {100.0 * self.intra_fraction:.1f}%"
        )


def form_groups(
    trace: TraceLog,
    max_group_size: Optional[int] = None,
    n_ranks: Optional[int] = None,
) -> FormationResult:
    """Run Algorithm 2 on ``trace`` and return the suggested group formation.

    Parameters
    ----------
    trace:
        MPI trace containing the send records.
    max_group_size:
        Upper bound ``G`` on the group size.  Defaults to ⌈√n⌉ as in the
        paper; it can be raised on faster networks or lowered on slow ones.
    n_ranks:
        Total number of processes ``n``; defaults to the number of ranks
        observed in the trace.
    """
    n = n_ranks if n_ranks is not None else trace.n_ranks
    if n < 1:
        raise ValueError("cannot form groups for an empty trace; pass n_ranks explicitly")
    G = max_group_size if max_group_size is not None else default_max_group_size(n)
    if G < 1:
        raise ValueError("max_group_size must be >= 1")

    # Preprocessing: aggregate send records per unordered pair, then sort the
    # tuple list descending by size, then by count, then by ranks (for
    # deterministic tie-breaking).
    totals = trace.pair_totals()
    pairs: List[Tuple[Tuple[int, int], int, int]] = [
        (pair, count, size) for pair, (count, size) in totals.items() if pair[0] != pair[1]
    ]
    pairs.sort(key=lambda item: (-item[2], -item[1], item[0]))

    groups: List[_WorkingGroup] = []
    index_of: Dict[int, _WorkingGroup] = {}
    merged = 0
    skipped = 0

    def find(rank: int) -> Optional[_WorkingGroup]:
        return index_of.get(rank)

    for (p1, p2), count, size in pairs:
        r1 = find(p1)
        r2 = find(p2)
        if r1 is None and r2 is None:
            if G < 2:
                # a group-size bound below two degenerates to no grouping at all
                skipped += 1
                continue
            group = _WorkingGroup(members={p1, p2}, messages=count, bytes=size)
            groups.append(group)
            index_of[p1] = group
            index_of[p2] = group
            merged += 1
        elif r2 is None and r1 is not None:
            if len(r1.members | {p2}) <= G:
                r1.members.add(p2)
                r1.messages += count
                r1.bytes += size
                index_of[p2] = r1
                merged += 1
            else:
                skipped += 1
        elif r1 is None and r2 is not None:
            if len(r2.members | {p1}) <= G:
                r2.members.add(p1)
                r2.messages += count
                r2.bytes += size
                index_of[p1] = r2
                merged += 1
            else:
                skipped += 1
        elif r1 is r2:
            assert r1 is not None
            r1.messages += count
            r1.bytes += size
            merged += 1
        else:
            assert r1 is not None and r2 is not None
            if len(r1.members | r2.members) <= G:
                r1.members |= r2.members
                r1.messages += r2.messages + count
                r1.bytes += r2.bytes + size
                for rank in r2.members:
                    index_of[rank] = r1
                groups.remove(r2)
                merged += 1
            else:
                skipped += 1

    groupset = GroupSet.from_lists([sorted(g.members) for g in groups], n_ranks=n)
    pair_bytes = {pair: size for pair, (_, size) in totals.items()}
    intra = intra_group_traffic_fraction(groupset, pair_bytes)
    return FormationResult(
        groupset=groupset,
        max_group_size=G,
        intra_fraction=intra,
        pair_count=len(pairs),
        merged_pairs=merged,
        skipped_pairs=skipped,
    )


def grouping_quality(groupset: GroupSet, trace: TraceLog) -> Dict[str, float]:
    """Quality metrics of an arbitrary grouping against a trace.

    Returns a dictionary with:

    * ``intra_fraction`` — fraction of bytes kept inside groups,
    * ``logged_bytes`` — bytes that would be logged (inter-group traffic),
    * ``logged_messages`` — messages that would be logged,
    * ``max_group_size`` / ``mean_group_size`` — size statistics.
    """
    pair_totals = trace.pair_totals()
    logged_bytes = 0
    logged_msgs = 0
    for (a, b), (count, size) in pair_totals.items():
        if a == b:
            continue
        if not groupset.same_group(a, b):
            logged_bytes += size
            logged_msgs += count
    pair_bytes = {pair: size for pair, (_, size) in pair_totals.items()}
    return {
        "intra_fraction": intra_group_traffic_fraction(groupset, pair_bytes),
        "logged_bytes": float(logged_bytes),
        "logged_messages": float(logged_msgs),
        "max_group_size": float(groupset.max_group_size),
        "mean_group_size": float(groupset.mean_group_size),
    }

