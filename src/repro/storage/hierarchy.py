"""The checkpoint-storage hierarchy: where images live, where restarts read.

This subsystem sits between the checkpoint protocols (which *produce* images)
and the recovery orchestration (which must *retrieve* them).  It owns three
levels (see :mod:`repro.storage.policy`):

* **L1** — the node-local disk (:class:`~repro.cluster.storage.LocalDiskArray`),
* **L2** — an asynchronous partner replica on a topology-aware buddy node,
  shipped over the live, contended :class:`~repro.cluster.network.Network`
  with a *bounded* in-flight buffer per source node (drain traffic
  back-pressures the checkpointing rank instead of piling up), and
* **L3** — the remote checkpoint servers
  (:class:`~repro.cluster.storage.RemoteStorageServers`).

A *catalog* records which levels hold each ``(rank, ckpt_id)`` image and on
which node, and survives node deaths conservatively: a copy on a crashed node
is unreadable while the node is down, and a copy on a node whose *disk* was
destroyed (a whole-switch power event) is lost forever.  Restart-time tier
selection (:meth:`StorageHierarchy.restore_plan`) picks the cheapest
*surviving* copy — local if the node reboots in place, partner if the node is
dead, remote if node and partner are both gone — and returns None when no
copy survives, which the recovery orchestration reports as an *unsurvivable*
failure instead of silently pretending a dead node's disk is readable.

**Legacy mode** (``policy=None``, the default for every pre-existing config)
routes all I/O through this same API but delegates verbatim to the single
configured storage system, so default runs stay bit-identical to the parity
goldens while still feeding the per-tier byte counters.  It is not
:func:`~repro.storage.policy.local_only`: a restart takes the newest common
checkpoint without asking which copies survive, and a victim moved to a
spare reads its image off the dead node's disk (a crash leaves the disk
intact) and ships it over the network, where ``local_only()`` counts that
disk unreadable and reboots the node in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.ckpt.scheduler import tier_levels
from repro.sim.engine import Interrupt
from repro.sim.primitives import Event, Resource
from repro.storage.policy import PARTNER_CROSS_SWITCH, StoragePolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.network import Network
    from repro.cluster.node import Node
    from repro.cluster.storage import LocalDiskArray, RemoteStorageServers, StorageSystem
    from repro.cluster.topology import NodeTopology
    from repro.sim.engine import Simulator


@dataclass
class ImageCopy:
    """One physical copy of a checkpoint image on some level."""

    level: str
    #: node holding the copy (None for L3 — the remote servers)
    node: Optional[int]
    completed_at: float
    #: True once the copy's medium was destroyed (disk lost with its node)
    lost: bool = False


@dataclass
class ImageRecord:
    """Catalog entry: every copy of one rank's checkpoint image."""

    rank: int
    ckpt_id: int
    nbytes: int
    origin_node: int
    copies: List[ImageCopy] = field(default_factory=list)
    #: per-work-unit domain progress captured with the image (unit → completed
    #: steps); elastic shrink restarts read this from a dead rank's newest
    #: surviving image to know where its adopted units resume
    domain_state: Optional[Dict[int, int]] = None
    #: scheduled async (L2) copies still in flight; the image is *safe* —
    #: eligible as a garbage-collection point for the sender logs protecting
    #: it — only once this reaches zero (a copy that dies with its endpoint
    #: never decrements it: an unsafe image stays unsafe)
    pending_async: int = 0
    #: callbacks fired the moment the image becomes safe
    safe_callbacks: List = field(default_factory=list)

    @property
    def safe(self) -> bool:
        """True once every scheduled copy of this image has materialised."""
        return self.pending_async == 0

    def copy_on(self, level: str) -> Optional[ImageCopy]:
        """The (first) surviving copy on ``level``, or None."""
        for copy in self.copies:
            if copy.level == level and not copy.lost:
                return copy
        return None

    def levels(self) -> Tuple[str, ...]:
        """Levels currently holding a surviving copy, cheapest first."""
        return tuple(sorted({c.level for c in self.copies if not c.lost},
                            key=("L1", "L2", "L3").index))


@dataclass(frozen=True)
class RestorePlan:
    """The tier selected to restore one image, and where to read it."""

    level: str
    #: node whose disk serves the read (None for L3)
    source_node: Optional[int]


class UnsurvivableFailure(RuntimeError):
    """No surviving copy of a required checkpoint image exists anywhere."""


class StorageHierarchy:
    """Owns checkpoint-image placement across L1/L2/L3 and restart reads.

    Parameters
    ----------
    sim / nodes / topology / network:
        The simulated substrate (the cluster wires these in).
    local / remote:
        The L1 disk array and — when configured — the L3 server pool.
    policy:
        The :class:`~repro.storage.policy.StoragePolicy`; None selects
        *legacy mode*: all I/O delegates to ``base`` exactly as before the
        hierarchy existed (bit-identical goldens), with the byte counters
        attributed to the base level.
    base:
        The storage system legacy mode (and plain :meth:`write`/:meth:`read`
        traffic such as log flushes) delegates to.
    base_level:
        "L1" when ``base`` is the local-disk array, "L3" for remote servers.
    """

    def __init__(
        self,
        sim: "Simulator",
        nodes: Sequence["Node"],
        topology: "NodeTopology",
        network: "Network",
        local: "LocalDiskArray",
        remote: Optional["RemoteStorageServers"],
        policy: Optional[StoragePolicy],
        base: "StorageSystem",
        base_level: str,
    ) -> None:
        if base_level not in ("L1", "L3"):
            raise ValueError("base_level must be 'L1' or 'L3'")
        if policy is not None and policy.uses_l3 and remote is None:
            raise ValueError("policy includes L3 but the cluster has no remote storage")
        self.sim = sim
        self.nodes = nodes
        self.topology = topology
        self.network = network
        self.local = local
        self.remote = remote
        self.policy = policy
        self.base = base
        self.base_level = base_level
        #: (rank, ckpt_id) → every known copy of that image
        self.catalog: Dict[Tuple[int, int], ImageRecord] = {}
        #: per-source-node bounded replication buffer (lazy)
        self._slots: Dict[int, Resource] = {}
        #: per-node disk generation, bumped when the disk is destroyed; an
        #: in-flight partner copy whose endpoint changed generation mid-copy
        #: is discarded instead of recorded
        self._disk_epoch: Dict[int, int] = {}
        # -- statistics ------------------------------------------------------
        self.tier_bytes_written: Dict[str, int] = {"L1": 0, "L2": 0, "L3": 0}
        self.tier_bytes_read: Dict[str, int] = {"L1": 0, "L2": 0, "L3": 0}
        self.partner_copies_started = 0
        self.partner_copies_completed = 0
        self.partner_copies_lost = 0
        self.replication_stalls = 0

    # -- mode ------------------------------------------------------------------
    @property
    def legacy(self) -> bool:
        """True when no policy is set: delegate-verbatim single-tier mode."""
        return self.policy is None

    # -- partner placement ------------------------------------------------------
    def partner_of(self, node: int) -> Optional[int]:
        """The buddy node holding ``node``'s L2 replicas (None = no candidate).

        Cross-switch placement pairs each node with the same-offset node
        behind the *next* edge switch (wrapping), so replica traffic spreads
        instead of converging on one rack and no switch holds both copies of
        anything.  Same-switch placement uses the in-rack ring.  A
        single-switch cluster degrades cross-switch placement to the ring —
        there is no second switch to prefer.
        """
        topo = self.topology
        switch = topo.switch_of(node)
        members = list(topo.switch_nodes(switch))
        offset = node - members[0]
        cross = (self.policy is not None
                 and self.policy.partner_placement == PARTNER_CROSS_SWITCH)
        if cross and topo.n_switches > 1:
            target = list(topo.switch_nodes((switch + 1) % topo.n_switches))
            return target[offset % len(target)]
        if len(members) < 2:
            return None
        return members[(offset + 1) % len(members)]

    # -- write path -------------------------------------------------------------
    def write(self, node: int, nbytes: int) -> Generator[Event, None, float]:
        """Tier-agnostic write (log flushes, legacy image dumps).

        Delegates verbatim to the base storage system — same events, same
        timing as before the hierarchy existed — and books the bytes under
        the base level.
        """
        elapsed = yield from self.base.write(node, nbytes)
        self.tier_bytes_written[self.base_level] += nbytes
        return elapsed

    def read(self, node: int, nbytes: int) -> Generator[Event, None, float]:
        """Tier-agnostic read (legacy restores, replayed-log fetches)."""
        elapsed = yield from self.base.read(node, nbytes)
        self.tier_bytes_read[self.base_level] += nbytes
        return elapsed

    def write_image(
        self, rank: int, node: int, ckpt_id: int, nbytes: int,
        domain_state: Optional[Dict[int, int]] = None,
    ) -> Generator[Event, None, Tuple[str, ...]]:
        """Persist one checkpoint image according to the policy.

        Synchronous levels (L1, L3) complete before this coroutine returns —
        the checkpoint's "Checkpoint" stage pays for them, exactly like the
        single-tier dump did.  An L2 promotion acquires a bounded in-flight
        slot (blocking the checkpointing rank when the buffer is full — the
        back-pressure) and then drains in the background over the live
        network.  Returns the levels this image was scheduled onto.
        """
        if self.legacy:
            yield from self.write(node, nbytes)
            self._record_copy(rank, ckpt_id, nbytes, node,
                              self.base_level,
                              node if self.base_level == "L1" else None,
                              domain_state=domain_state)
            return (self.base_level,)
        assert self.policy is not None
        levels = tier_levels(self.policy, ckpt_id)
        record = self._record(rank, ckpt_id, nbytes, node,
                              domain_state=domain_state)
        if "L1" in levels:
            yield from self.local.write(node, nbytes)
            self.tier_bytes_written["L1"] += nbytes
            record.copies.append(ImageCopy("L1", node, self.sim.now))
        if "L3" in levels:
            assert self.remote is not None
            yield from self.remote.write(node, nbytes)
            self.tier_bytes_written["L3"] += nbytes
            record.copies.append(ImageCopy("L3", None, self.sim.now))
        if "L2" in levels:
            partner = self.partner_of(node)
            if partner is not None and not self.nodes[partner].failed:
                hold = yield from self._acquire_slot(node)
                self.partner_copies_started += 1
                record.pending_async += 1
                self.sim.process(
                    self._replicate(record, node, partner, nbytes, hold),
                    name="l2-replicate",
                )
            else:
                # No viable partner (single-node switch, or the buddy is
                # down): the snapshot must not claim a replica was initiated.
                levels = tuple(lvl for lvl in levels if lvl != "L2")
        return levels

    def on_image_safe(self, rank: int, ckpt_id: int, callback) -> None:
        """Invoke ``callback`` once the image's scheduled copies all exist.

        Fires immediately for images with no async copies in flight (every
        legacy/sync-only write).  The checkpoint protocols use this to delay
        moving their log-GC point onto a new checkpoint until that checkpoint
        is actually restorable — the SCR rule that a checkpoint does not
        *retire* its predecessor until its replication drained.  Without it,
        a failure landing while the newest image's partner copy is still in
        flight would have to roll back to the previous checkpoint, whose
        replay bytes the senders may already have garbage-collected.
        """
        record = self.catalog.get((rank, ckpt_id))
        if record is None or record.safe:
            callback()
            return
        record.safe_callbacks.append(callback)

    def _acquire_slot(self, node: int) -> Generator[Event, None, object]:
        """Claim one in-flight replication slot for ``node`` (may block)."""
        slots = self._slots.get(node)
        if slots is None:
            assert self.policy is not None
            slots = Resource(self.sim, capacity=self.policy.max_inflight_copies,
                             name=f"l2-buffer:{node}")
            self._slots[node] = slots
        hold = slots.acquire_nowait()
        if hold is not None:
            return (slots, hold)
        # Buffer full: the checkpointing rank stalls until a copy drains.
        self.replication_stalls += 1
        req = slots.request()
        try:
            yield req
        except BaseException:
            slots.release(req)
            raise
        return (slots, req)

    def _replicate(self, record: ImageRecord, src: int, partner: int,
                   nbytes: int, slot_hold: object) -> Generator[Event, None, None]:
        """Background partner copy: local read → network ship → partner write."""
        slots, hold = slot_hold
        src_epoch = self._disk_epoch.get(src, 0)
        dst_epoch = self._disk_epoch.get(partner, 0)
        # Telemetry (when attached to the simulator) records each copy as a
        # retroactive span at its outcome — overlapping copies share the
        # ``storage`` track, and lost/interrupted copies close aborted.
        telemetry = self.sim.telemetry
        tracing = telemetry is not None and telemetry.tracing
        started_at = self.sim.now

        def _copy_span(aborted: bool) -> None:
            telemetry.tracer.add(
                "l2_partner_copy", start=started_at, end=self.sim.now,
                track="storage", category="storage", aborted=aborted,
                rank=record.rank, ckpt_id=record.ckpt_id, src=src,
                partner=partner, bytes=nbytes)

        try:
            yield from self.local.read(src, nbytes)
            yield from self.network.transfer(src, partner, nbytes)
            yield from self.local.write(partner, nbytes)
            if (self.nodes[src].failed or self.nodes[partner].failed
                    or self._disk_epoch.get(src, 0) != src_epoch
                    or self._disk_epoch.get(partner, 0) != dst_epoch):
                # An endpoint died (or lost its disk) mid-copy: the stream
                # died with it, the replica never materialised.
                self.partner_copies_lost += 1
                if tracing:
                    _copy_span(aborted=True)
                return
            self.tier_bytes_written["L2"] += nbytes
            self.partner_copies_completed += 1
            record.copies.append(ImageCopy("L2", partner, self.sim.now))
            record.pending_async -= 1
            if tracing:
                _copy_span(aborted=False)
            if record.safe and record.safe_callbacks:
                callbacks, record.safe_callbacks = record.safe_callbacks, []
                for callback in callbacks:
                    callback()
        except Interrupt:
            self.partner_copies_lost += 1
            if tracing:
                _copy_span(aborted=True)
        finally:
            slots.release(hold)

    # -- catalog ---------------------------------------------------------------
    def _record(self, rank: int, ckpt_id: int, nbytes: int, node: int,
                domain_state: Optional[Dict[int, int]] = None) -> ImageRecord:
        record = ImageRecord(rank=rank, ckpt_id=ckpt_id, nbytes=nbytes,
                             origin_node=node, domain_state=domain_state)
        self.catalog[(rank, ckpt_id)] = record
        return record

    def _record_copy(self, rank: int, ckpt_id: int, nbytes: int,
                     origin: int, level: str, node: Optional[int],
                     domain_state: Optional[Dict[int, int]] = None) -> None:
        record = self._record(rank, ckpt_id, nbytes, origin,
                              domain_state=domain_state)
        record.copies.append(ImageCopy(level, node, self.sim.now))

    def node_failed(self, node: int, disk_lost: bool = False) -> None:
        """A node died.  With ``disk_lost`` its stored images are gone forever.

        A plain crash leaves the disk intact (an in-place reboot can read it
        again); a correlated outage that destroys the disk marks every copy
        located there as lost, which is what makes same-switch partner
        replication unable to survive a whole-switch event.
        """
        if not disk_lost:
            return
        self._disk_epoch[node] = self._disk_epoch.get(node, 0) + 1
        for record in self.catalog.values():
            for copy in record.copies:
                if copy.node == node:
                    copy.lost = True

    # -- restore path ------------------------------------------------------------
    def restore_plan(
        self,
        rank: int,
        ckpt_id: int,
        reader_node: int,
        assume_rebooted: Set[int] = frozenset(),
    ) -> Optional[RestorePlan]:
        """Cheapest surviving tier for one image read from ``reader_node``.

        * **L1** requires the copy to sit on the reader's own node and the
          node to be up — or about to reboot in place (``assume_rebooted``):
          local images are process-private files, nobody serves them remotely.
        * **L2** requires the partner node holding the replica to be alive;
          the read ships the image partner → reader over the network.
        * **L3** always survives (the remote servers are outside the
          failure domain, as in the paper's isolated checkpoint servers).

        Returns None when no copy survives — the caller reports the failure
        as unsurvivable instead of crashing.
        """
        record = self.catalog.get((rank, ckpt_id))
        if record is None:
            return None
        l1 = record.copy_on("L1")
        if (l1 is not None and l1.node == reader_node
                and (not self.nodes[l1.node].failed or l1.node in assume_rebooted)):
            return RestorePlan("L1", l1.node)
        l2 = record.copy_on("L2")
        if l2 is not None and not self.nodes[l2.node].failed:
            return RestorePlan("L2", l2.node)
        if record.copy_on("L3") is not None:
            return RestorePlan("L3", None)
        return None

    def perform_restore(
        self, plan: RestorePlan, reader_node: int, nbytes: int
    ) -> Generator[Event, None, float]:
        """Execute one image read according to ``plan`` (a sim coroutine)."""
        start = self.sim.now
        if plan.level == "L1":
            yield from self.local.read(reader_node, nbytes)
        elif plan.level == "L2":
            assert plan.source_node is not None
            yield from self.local.read(plan.source_node, nbytes)
            if plan.source_node != reader_node:
                yield from self.network.transfer(plan.source_node, reader_node, nbytes)
        elif plan.level == "L3":
            assert self.remote is not None
            yield from self.remote.read(reader_node, nbytes)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown level {plan.level!r}")
        self.tier_bytes_read[plan.level] += nbytes
        return self.sim.now - start

    # -- reporting ---------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Per-tier byte totals and replication counters (for payloads)."""
        return {
            "tier_bytes_written": dict(self.tier_bytes_written),
            "tier_bytes_read": dict(self.tier_bytes_read),
            "partner_copies_started": self.partner_copies_started,
            "partner_copies_completed": self.partner_copies_completed,
            "partner_copies_lost": self.partner_copies_lost,
            "replication_stalls": self.replication_stalls,
        }

    def describe(self) -> str:
        """One-line summary used in reports."""
        if self.legacy:
            return f"legacy {self.base_level} ({self.base.describe()})"
        return self.policy.describe()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<StorageHierarchy {self.describe()} images={len(self.catalog)} "
                f"l2={self.partner_copies_completed}>")
