"""Workload generators.

Each workload reproduces the *communication pattern*, *message sizes* and
*memory footprint* of one of the applications used in the paper's evaluation
(the quantities the checkpoint protocols actually interact with), expressed
as per-rank operation scripts for :class:`~repro.mpi.runtime.MpiRuntime`:

* :class:`~repro.workloads.hpl.HplWorkload` — High Performance Linpack on a
  P×Q process grid (row-major mapping, ring panel broadcasts, row swaps),
* :class:`~repro.workloads.npb_cg.CgWorkload` — NAS CG (transpose exchange +
  row reductions + global dot products; communication-non-stop),
* :class:`~repro.workloads.npb_sp.SpWorkload` — NAS SP (alternating-direction
  sweeps on a square process grid),
* :mod:`~repro.workloads.synthetic` — small parametric patterns used by the
  tests and examples.
"""

from repro import lazy_exports

_EXPORTS = {
    ".base": ("Workload",),
    ".hpl": ("HplWorkload",),
    ".npb_cg": ("CgWorkload",),
    ".npb_sp": ("SpWorkload",),
    ".synthetic": ("RingWorkload", "Halo2DWorkload", "MasterWorkerWorkload",
                   "AllToAllWorkload"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
