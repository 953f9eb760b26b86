"""Cluster hardware substrate.

Models the pieces of the HKU Gideon 300 cluster (and variations of it) that
the checkpoint/restart protocols interact with:

* :class:`~repro.cluster.node.Node` — a compute node with CPU speed and
  physical memory,
* :class:`~repro.cluster.network.Network` — a latency/bandwidth switched
  network with per-NIC serialisation (Fast Ethernet by default),
* :class:`~repro.cluster.storage.LocalDiskArray` and
  :class:`~repro.cluster.storage.RemoteStorageServers` — where checkpoint
  images and message logs are written,
* :class:`~repro.cluster.topology.ClusterSpec` / :class:`Cluster` — a bundle
  of all of the above plus process placement,
* :class:`~repro.cluster.failure.FailureModel` — failure injection.
"""

from repro import lazy_exports

_EXPORTS = {
    ".node": ("Node", "NodeSpec"),
    ".network": ("Network", "NetworkSpec", "FAST_ETHERNET", "GIGABIT_ETHERNET",
                 "INFINIBAND_SDR"),
    ".storage": ("StorageSpec", "LocalDiskArray", "RemoteStorageServers", "StorageSystem",
                 "LOCAL_IDE_DISK", "NFS_CHECKPOINT_SERVER"),
    ".topology": ("ClusterSpec", "Cluster", "GIDEON_300", "NodeTopology"),
    ".failure": ("FailureModel", "FailureEvent", "ExponentialFailureModel",
                 "PoissonFailureModel", "TraceFailureModel"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
