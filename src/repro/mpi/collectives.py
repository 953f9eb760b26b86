"""Point-to-point schedules for collective operations.

Collectives are decomposed into deterministic per-rank schedules of
point-to-point sends/receives, so that (a) they flow through exactly the same
network, accounting, tracing and checkpoint-protocol hooks as ordinary
messages, and (b) the trace analyser sees them (the paper's group formation
works purely from send records).

Algorithms:

* broadcast / reduce — binomial tree rooted at ``root``,
* barrier / allreduce — recursive doubling (with a fallback remainder step
  for non-power-of-two participant counts),
* allgather — ring.

Each schedule is a list of steps executed in order by every participant;
a step is ``("send", peer, nbytes)`` or ``("recv", peer, nbytes)``.
:func:`schedule_for` maps a collective op to its schedule; the runtime runs
that schedule and the script trace reads its sends, so both see the same
messages.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple, Type

from repro.mpi.ops import Allgather, Allreduce, Barrier, Bcast, Op, Reduce

Step = Tuple[str, int, int]

#: tag offset of collective traffic; applications should use tags below this
COLLECTIVE_TAG_BASE = 1_000_000


def _index_of(participants: Sequence[int], rank: int) -> int:
    try:
        return list(participants).index(rank)
    except ValueError as exc:
        raise ValueError(f"rank {rank} is not among participants {list(participants)}") from exc


def _validate(participants: Sequence[int]) -> List[int]:
    parts = list(participants)
    if not parts:
        raise ValueError("participants must not be empty")
    if len(set(parts)) != len(parts):
        raise ValueError("participants must be unique")
    if any(p < 0 for p in parts):
        raise ValueError("participants must be non-negative ranks")
    return parts


def bcast_schedule(rank: int, root: int, participants: Sequence[int], nbytes: int) -> List[Step]:
    """Binomial-tree broadcast schedule for ``rank``.

    The root sends to progressively further "virtual" children; every other
    participant first receives from its virtual parent and then forwards to
    its own children.
    """
    parts = _validate(participants)
    if root not in parts:
        raise ValueError(f"root {root} not among participants")
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    n = len(parts)
    ridx = _index_of(parts, root)
    vrank = (_index_of(parts, rank) - ridx) % n

    steps: List[Step] = []
    # Find the receive step (highest bit of vrank), unless we are the root.
    if vrank != 0:
        mask = 1
        while mask <= vrank:
            mask <<= 1
        mask >>= 1
        parent_v = vrank - mask
        parent = parts[(parent_v + ridx) % n]
        steps.append(("recv", parent, nbytes))
        next_mask = mask << 1
    else:
        next_mask = 1
    # Send to children.
    mask = next_mask
    while True:
        child_v = vrank + mask
        if child_v >= n:
            break
        child = parts[(child_v + ridx) % n]
        steps.append(("send", child, nbytes))
        mask <<= 1
    # Children must be contacted nearest-first for the tree to be well formed;
    # binomial broadcast sends to the *largest* offset first in the classic
    # formulation, but any consistent order is deadlock-free here because the
    # runtime's receives are source-specific.  Keep ascending order (it gives
    # slightly better pipelining with the serialising NIC model).
    return steps


def reduce_schedule(rank: int, root: int, participants: Sequence[int], nbytes: int) -> List[Step]:
    """Binomial-tree reduction schedule (mirror image of the broadcast)."""
    bcast = bcast_schedule(rank, root, participants, nbytes)
    # Reverse the tree: sends become receives and vice versa, in reverse order.
    steps: List[Step] = []
    for action, peer, size in reversed(bcast):
        steps.append(("recv" if action == "send" else "send", peer, size))
    return steps


def barrier_schedule(rank: int, participants: Sequence[int]) -> List[Step]:
    """Recursive-doubling barrier schedule (token messages of 4 bytes)."""
    return allreduce_schedule(rank, participants, nbytes=4)


def allreduce_schedule(rank: int, participants: Sequence[int], nbytes: int) -> List[Step]:
    """Recursive-doubling allreduce schedule.

    For non-power-of-two participant counts, the extra ranks first fold their
    contribution into a partner inside the largest power-of-two subset and
    receive the result back at the end (the standard MPI approach).
    """
    parts = _validate(participants)
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    n = len(parts)
    if n == 1:
        return []
    me = _index_of(parts, rank)

    pof2 = 1
    while pof2 * 2 <= n:
        pof2 *= 2
    rem = n - pof2

    steps: List[Step] = []
    if me < 2 * rem:
        if me % 2 == 1:
            # odd ranks in the remainder region fold into their even partner
            steps.append(("send", parts[me - 1], nbytes))
            steps.append(("recv", parts[me - 1], nbytes))
            return steps
        else:
            steps.append(("recv", parts[me + 1], nbytes))
            newrank = me // 2
    else:
        newrank = me - rem

    mask = 1
    while mask < pof2:
        partner_new = newrank ^ mask
        # translate back to original index
        partner = partner_new * 2 if partner_new < rem else partner_new + rem
        # pairwise exchange: lower index sends first to avoid head-of-line ambiguity
        if newrank < partner_new:
            steps.append(("send", parts[partner], nbytes))
            steps.append(("recv", parts[partner], nbytes))
        else:
            steps.append(("recv", parts[partner], nbytes))
            steps.append(("send", parts[partner], nbytes))
        mask <<= 1

    if me < 2 * rem and me % 2 == 0:
        steps.append(("send", parts[me + 1], nbytes))
    return steps


def allgather_schedule(rank: int, participants: Sequence[int], nbytes: int) -> List[Step]:
    """Ring allgather: ``n-1`` rounds, each forwarding one block to the right."""
    parts = _validate(participants)
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    n = len(parts)
    if n == 1:
        return []
    me = _index_of(parts, rank)
    right = parts[(me + 1) % n]
    left = parts[(me - 1) % n]
    steps: List[Step] = []
    for _ in range(n - 1):
        steps.append(("send", right, nbytes))
        steps.append(("recv", left, nbytes))
    return steps


#: collective op class -> (op, rank, participants) -> that rank's schedule
_SCHEDULES: Dict[Type[Op], Callable[..., List[Step]]] = {
    Barrier: lambda op, rank, parts: barrier_schedule(rank, parts),
    Bcast: lambda op, rank, parts: bcast_schedule(rank, op.root, parts, op.nbytes),
    Reduce: lambda op, rank, parts: reduce_schedule(rank, op.root, parts, op.nbytes),
    Allreduce: lambda op, rank, parts: allreduce_schedule(rank, parts, op.nbytes),
    Allgather: lambda op, rank, parts: allgather_schedule(rank, parts, op.nbytes),
}

#: the collective op classes, matched by exact type as the runtime dispatches
COLLECTIVES = tuple(_SCHEDULES)


def schedule_for(op: Op, rank: int, n_ranks: int) -> List[Step]:
    """``rank``'s point-to-point schedule of collective ``op``.

    Participants default to every rank of the ``n_ranks`` communicator.
    """
    return _SCHEDULES[op.__class__](op, rank, op.participants or tuple(range(n_ranks)))


def schedule_message_count(steps: Sequence[Step]) -> int:
    """Number of sends in a schedule (helper for analytic cost models)."""
    return sum(1 for action, _, _ in steps if action == "send")


def schedule_byte_count(steps: Sequence[Step]) -> int:
    """Total bytes sent by a schedule (helper for analytic cost models)."""
    return sum(size for action, _, size in steps if action == "send")
