"""Discrete-event simulation engine.

A small, dependency-free, generator-based discrete-event simulation (DES)
kernel in the style of SimPy.  Simulation *processes* are Python generators
that ``yield`` waitable objects (:class:`Timeout`, :class:`Event`,
:class:`AllOf`, :class:`AnyOf`, resource requests).  The :class:`Simulator`
owns the event calendar and advances virtual time.

Everything higher up in :mod:`repro` (the cluster model, the MPI-like runtime
and the checkpoint protocols) is written against this kernel, so its semantics
are documented carefully and tested extensively.
"""

from repro import lazy_exports

_EXPORTS = {
    ".engine": ("Simulator", "SimProcess", "Interrupt", "SimulationError"),
    ".primitives": ("Event", "Timeout", "AllOf", "AnyOf", "Condition", "Resource",
                    "ResourceRequest", "Store", "PriorityStore"),
    ".rng": ("RandomStreams",),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
