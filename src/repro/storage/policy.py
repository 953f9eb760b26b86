"""Storage-tier policy: which levels hold each checkpoint, and how.

SCR and FTI organise checkpoint storage as a *hierarchy*: cheap, failure-prone
levels absorb the frequent checkpoints, expensive resilient levels take a
subset.  The policy here names three levels,

* **L1** — the node's local disk (fast, dies with the node),
* **L2** — a topology-aware *partner replica*: an async copy of the image on a
  buddy node, cross-switch preferred so a whole-switch outage cannot take both
  copies, and
* **L3** — the remote/parallel file system (the paper's dedicated checkpoint
  servers; survives anything, costs the most),

and schedules them FTI-style: every checkpoint lands on L1, every ``k``-th is
promoted to L2, every ``m``-th to L3 (see
:func:`repro.ckpt.scheduler.tier_levels`).

The module is import-light on purpose: :class:`StoragePolicy` is carried by
:class:`~repro.cluster.topology.ClusterSpec` and serialised into campaign
keys, so it must not drag the simulator in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


#: canonical level names, cheapest first
LEVELS: Tuple[str, ...] = ("L1", "L2", "L3")

#: partner-placement modes
PARTNER_CROSS_SWITCH = "cross_switch"
PARTNER_SAME_SWITCH = "same_switch"


@dataclass(frozen=True)
class StoragePolicy:
    """Per-run configuration of the checkpoint-storage hierarchy.

    Parameters
    ----------
    levels:
        Subset of :data:`LEVELS` the run uses.  Must contain at least one
        *synchronous* level (L1 or L3) so every checkpoint has a durable
        home the moment the dump returns; L2 is always asynchronous.
    l2_every / l3_every:
        FTI-style promotion intervals: the ``k``-th / ``m``-th checkpoint
        wave (by checkpoint id, 1-based) is copied to that level.  1 means
        every checkpoint.
    partner_placement:
        ``"cross_switch"`` places each node's L2 partner behind a *different*
        edge switch (survives a whole-switch outage); ``"same_switch"`` keeps
        the replica in the rack (cheaper in a hierarchical network, but a
        correlated outage takes both copies — the survivability experiments
        measure exactly this trade).
    max_inflight_copies:
        Bound on concurrent partner copies *per source node*.  A checkpoint
        whose L2 promotion finds the buffer full waits for a slot — drain
        traffic back-pressures the checkpointing rank instead of piling up
        unboundedly behind a contended network.
    """

    levels: Tuple[str, ...] = ("L1",)
    l2_every: int = 1
    l3_every: int = 1
    partner_placement: str = PARTNER_CROSS_SWITCH
    max_inflight_copies: int = 2

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("levels must not be empty")
        object.__setattr__(self, "levels", tuple(self.levels))
        for level in self.levels:
            if level not in LEVELS:
                raise ValueError(f"unknown storage level {level!r}; expected one of {LEVELS}")
        if len(set(self.levels)) != len(self.levels):
            raise ValueError("levels must not repeat")
        if "L1" not in self.levels and "L3" not in self.levels:
            raise ValueError("policy needs a synchronous level (L1 or L3); "
                             "an async-only (L2) hierarchy would leave fresh "
                             "checkpoints with no durable copy")
        if self.l2_every < 1 or self.l3_every < 1:
            raise ValueError("l2_every and l3_every must be >= 1")
        if self.partner_placement not in (PARTNER_CROSS_SWITCH, PARTNER_SAME_SWITCH):
            raise ValueError(
                f"unknown partner_placement {self.partner_placement!r}; expected "
                f"{PARTNER_CROSS_SWITCH!r} or {PARTNER_SAME_SWITCH!r}")
        if self.max_inflight_copies < 1:
            raise ValueError("max_inflight_copies must be >= 1")

    # -- introspection --------------------------------------------------------
    @property
    def uses_l1(self) -> bool:
        """True when images land on the node-local disk."""
        return "L1" in self.levels

    @property
    def uses_l2(self) -> bool:
        """True when (some) images get a partner replica."""
        return "L2" in self.levels

    @property
    def uses_l3(self) -> bool:
        """True when (some) images reach the remote file system."""
        return "L3" in self.levels

    def describe(self) -> str:
        """One-line summary used in experiment tables."""
        parts = []
        for level in self.levels:
            if level == "L2":
                every = f"/{self.l2_every}" if self.l2_every > 1 else ""
                parts.append(f"L2({self.partner_placement}{every})")
            elif level == "L3":
                every = f"/{self.l3_every}" if self.l3_every > 1 else ""
                parts.append(f"L3{every}")
            else:
                parts.append(level)
        return "+".join(parts)


def local_only() -> StoragePolicy:
    """L1-only: every image on its node's local disk and nowhere else.

    Not the default single-tier storage (``policy=None``): a dead node's disk
    is unreadable here, so a victim reboots in place and returns its spare,
    where the default moves it to the spare and reads the dead node's disk.
    """
    return StoragePolicy(levels=("L1",))


def partner_replicated(
    placement: str = PARTNER_CROSS_SWITCH,
    l2_every: int = 1,
    max_inflight_copies: int = 2,
) -> StoragePolicy:
    """L1 + async partner replica (the SCR "PARTNER" scheme)."""
    return StoragePolicy(levels=("L1", "L2"), partner_placement=placement,
                         l2_every=l2_every, max_inflight_copies=max_inflight_copies)


def full_hierarchy(
    placement: str = PARTNER_CROSS_SWITCH,
    l2_every: int = 1,
    l3_every: int = 1,
    max_inflight_copies: int = 2,
) -> StoragePolicy:
    """L1 + partner replica + remote file system (the full FTI-style stack)."""
    return StoragePolicy(levels=("L1", "L2", "L3"), partner_placement=placement,
                         l2_every=l2_every, l3_every=l3_every,
                         max_inflight_copies=max_inflight_copies)
