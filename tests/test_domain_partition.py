"""Property tests for the domain/partition layer (elastic restart tentpole).

The refactor's core contract: a :class:`~repro.workloads.domain.Partition` is
pure bookkeeping.  Any valid assignment of units to ranks — shrink, expand,
or arbitrary shuffle — conserves the domain's total compute seconds, total
point-to-point message bytes and total resident memory, measured from the
*derived per-rank scripts* (so merge bugs cannot hide behind the domain
arithmetic).  Under the identity partition the derived scripts are the legacy
scripts op-for-op, which is what keeps the determinism goldens bit-identical.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.elastic import measured_totals
from repro.experiments.runner import build_workload
from repro.mpi.ops import Compute, Isend, Marker, Recv, Send, SendRecv
from repro.workloads.base import Workload
from repro.workloads.domain import Domain, Partition, RepartitionPlan, WorkUnit


#: the five workloads of the paper harness, at property-test scale:
#: (unit count, cheap parameter overrides).  SP needs a square count.
WORKLOADS = {
    "ring": (6, {"iterations": 4, "memory_bytes": 1 << 20}),
    "halo2d": (6, {"iterations": 4, "memory_bytes": 1 << 20}),
    "hpl": (8, {"problem_size": 2000, "block_size": 200, "max_steps": 6}),
    "cg": (8, {"na": 14000, "max_steps": 4}),
    "sp": (9, {"grid_points": 36, "max_steps": 3, "time_steps": 6}),
}

_CACHE = {}


def _workload(name):
    """One shared instance per workload (examples only mutate the partition)."""
    if name not in _CACHE:
        n_units, options = WORKLOADS[name]
        wl = build_workload(name, n_units, dict(options))
        reference = measured_totals(wl, n_units)
        _CACHE[name] = (wl, reference)
    return _CACHE[name]


# ------------------------------------------------------------------ conservation
@pytest.mark.parametrize("name", sorted(WORKLOADS))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_any_partition_conserves_totals(name, data):
    """Random unit→rank maps conserve compute, message bytes and memory."""
    wl, (ref_compute, ref_message, ref_memory) = _workload(name)
    n_units = wl.n_units
    n_ranks = data.draw(st.integers(min_value=1, max_value=n_units + 3),
                        label="n_ranks")
    owner = data.draw(st.lists(st.integers(0, n_ranks - 1),
                               min_size=n_units, max_size=n_units),
                      label="owner")
    wl.set_partition(Partition(owner, n_ranks))
    try:
        compute, message, memory = measured_totals(wl, n_ranks)
    finally:
        wl.set_partition(Partition.identity(n_units))
    assert math.isclose(compute, ref_compute, rel_tol=1e-9)
    assert message == ref_message
    assert memory == ref_memory


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_block_partitions_conserve_across_rank_counts(name):
    """Shrink and expand block partitions carry identical totals."""
    wl, (ref_compute, ref_message, ref_memory) = _workload(name)
    n_units = wl.n_units
    try:
        for n_ranks in (1, 2, n_units - 1, n_units, n_units + 2):
            wl.set_partition(Partition.block(n_units, n_ranks))
            compute, message, memory = measured_totals(wl, n_ranks)
            assert math.isclose(compute, ref_compute, rel_tol=1e-9), n_ranks
            assert message == ref_message, n_ranks
            assert memory == ref_memory, n_ranks
    finally:
        wl.set_partition(Partition.identity(n_units))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_domain_totals_match_measured_scripts(name):
    """Domain arithmetic agrees with the scripts it summarises."""
    wl, (ref_compute, ref_message, ref_memory) = _workload(name)
    domain = wl.domain()
    assert domain.n_units == wl.n_units
    assert math.isclose(domain.total_compute_seconds, ref_compute, rel_tol=1e-9)
    assert domain.total_message_bytes == ref_message
    assert domain.total_memory_bytes == ref_memory


# ------------------------------------------------------- identity == legacy
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_identity_partition_equals_legacy_script(name):
    """Explicit identity partition yields the legacy script op-for-op."""
    wl, _ = _workload(name)
    wl.set_partition(Partition.identity(wl.n_units))
    try:
        for rank in range(wl.n_units):
            assert list(wl.program(rank)) == list(wl.native_program(rank))
            assert wl.memory_bytes(rank) == wl.native_memory_bytes(rank)
    finally:
        wl.set_partition(Partition.identity(wl.n_units))


class _SendOnlyExchange(Workload):
    """Two units per step: unit 0 exchanges with unit 1, which only sends back."""

    name = "send-only"

    def native_program(self, unit):
        for step in range(2):
            yield Marker(label=f"step{step}")
            yield Compute(seconds=0.1)
            if unit == 0:
                yield SendRecv(dst=1, send_nbytes=64, src=1, tag=1)
            else:
                yield SendRecv(dst=0, send_nbytes=64, src=None, tag=1)

    def native_memory_bytes(self, unit):
        return 1 << 20


def test_merge_keeps_a_send_only_exchange_send_only():
    """A ``SendRecv`` without ``src`` sends and receives nothing: the merged
    script has exactly as many receives as the native scripts, and no
    ``ANY_SOURCE`` receive that could steal a later exact receive's message."""
    wl = _SendOnlyExchange(2)
    native = [op for unit in range(2) for op in wl.native_program(unit)]
    native_recvs = sum(1 for op in native if isinstance(op, SendRecv) and op.src is not None)
    wl.set_partition(Partition.block(2, 1))
    merged = list(wl.program(0))
    recvs = [op for op in merged if isinstance(op, Recv)]
    assert len(recvs) == native_recvs == 2
    assert all(op.src is not None for op in recvs)
    assert sum(op.nbytes for op in merged if isinstance(op, Isend)) == 4 * 64


def test_total_operations_cached_and_invalidated():
    wl = build_workload("ring", 4, {"iterations": 4})
    first = wl.total_operations(2)
    assert wl._total_ops.get(2) == first
    assert wl.total_operations(2) == first
    wl.set_partition(Partition.block(4, 2))
    assert not wl._total_ops
    merged = wl.total_operations(0)
    assert merged == wl.total_operations(0)


def test_merged_script_is_derived_once_per_partition(monkeypatch):
    """Two calls yield the same merged script from one derivation; a new
    partition (or resume step) derives it again from the new layout."""
    wl = build_workload("halo2d", 12, {"n_units": 16, "iterations": 3})
    merges = []
    merge = wl._merge_units

    def counting(*args):
        merges.append(args)
        return merge(*args)

    monkeypatch.setattr(wl, "_merge_units", counting)
    first = list(wl.program(5))
    assert list(wl.program(5)) == first
    assert len(merges) == 1
    for start_step in (0, 1):
        shrunk = Partition.block(16, 10)
        wl.set_partition(shrunk, start_step=start_step)
        fresh = build_workload("halo2d", 16, {"iterations": 3})
        fresh.set_partition(shrunk, start_step=start_step)
        assert list(wl.program(5)) == list(fresh.program(5)) != first
    assert len(merges) == 3


def test_merged_scripts_share_remapped_ops():
    """Each distinct native op is remapped once per partition: ranks share
    the remapped objects, and an exchange re-yielded every iteration stays
    one object per neighbour, not one per iteration."""
    wl = build_workload("master-worker", 4, {"n_units": 6, "iterations": 3})
    sends = [[op for op in wl.program(rank) if isinstance(op, Send)] for rank in (2, 3)]
    # units 4 and 5 (ranks 2 and 3) send each result to the master's rank
    assert len(sends[0]) == len(sends[1]) == 3
    assert {id(op) for op in sends[0]} == {id(op) for op in sends[1]}
    assert len({id(op) for op in sends[0]}) == 1

    wl = build_workload("halo2d", 12, {"n_units": 16, "iterations": 5})
    for rank in range(12):
        isends = [op for op in wl.program(rank) if isinstance(op, Isend)]
        n_units = len(wl.partition.units_of(rank))
        assert len(isends) == 5 * 4 * n_units
        assert len({id(op) for op in isends}) <= 4 * n_units


# ------------------------------------------------------------------- partition
def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((), 2)
    with pytest.raises(ValueError):
        Partition((0, 2), 2)
    with pytest.raises(ValueError):
        Partition((0,), 0)
    with pytest.raises(ValueError):
        Partition.block(0, 2)


def test_block_partition_shapes():
    part = Partition.block(7, 3)
    sizes = [len(part.units_of(r)) for r in range(3)]
    assert sum(sizes) == 7 and max(sizes) - min(sizes) <= 1
    # expand: trailing ranks idle, still valid
    wide = Partition.block(3, 5)
    assert wide.active_ranks() == (0, 1, 2)
    assert wide.units_of(4) == ()
    assert Partition.block(4, 4).is_identity


@given(n_units=st.integers(2, 12), data=st.data())
@settings(max_examples=40, deadline=None)
def test_reassign_covers_orphans_deterministically(n_units, data):
    n_ranks = data.draw(st.integers(2, n_units + 2), label="n_ranks")
    owner = data.draw(st.lists(st.integers(0, n_ranks - 1),
                               min_size=n_units, max_size=n_units),
                      label="owner")
    part = Partition(owner, n_ranks)
    dead = data.draw(st.sets(st.integers(0, n_ranks - 1),
                             max_size=n_ranks - 1), label="dead")
    repart = part.reassign(dead)
    # same communicator size, every unit owned by a survivor
    assert repart.n_ranks == part.n_ranks
    assert all(r not in dead for r in repart.owner)
    # surviving ranks keep exactly their old units
    for rank in range(n_ranks):
        if rank not in dead:
            assert set(part.units_of(rank)) <= set(repart.units_of(rank))
    # deterministic: same inputs, same plan
    assert repart == part.reassign(dead)


def test_reassign_all_dead_raises():
    with pytest.raises(ValueError):
        Partition.identity(3).reassign({0, 1, 2})


def test_repartition_plan_derived_views():
    part = Partition((0, 2, 2), 3)
    plan = RepartitionPlan(
        failed_ranks=(1,), new_partition=part, resume_step=4,
        target_ckpt_id=2, adoptions=((1, 1, 2), (2, 1, 2)))
    assert plan.units_migrated == 2
    assert plan.ranks_after == 2
    assert plan.image_ships() == ((1, 2),)


def test_domain_weights_and_steps():
    domain = Domain((WorkUnit(0, 1.0, 10, 100, 4), WorkUnit(1, 3.0, 20, 50, 6)))
    assert domain.weights() == {0: 1.0, 1: 3.0}
    assert domain.steps == 6
    assert domain.total_memory_bytes == 30
