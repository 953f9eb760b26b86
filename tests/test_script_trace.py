"""The script trace against a simulated traced run.

``script_trace`` reads Algorithm 2's send records off the ranks' op scripts
instead of simulating a run with the tracer linked in.  These tests hold it
to the reference it replaces: a failure-free ``MpiRuntime(..., tracer=
Tracer())`` run must record the same ``(src, dst, nbytes, tag)`` multiset
and lead to the same group formation, on every workload family and on a
hand-written script that uses every collective kind.  CI runs this module on
both network models.
"""

import pytest

from repro.cluster.topology import GIDEON_300, Cluster
from repro.core.formation import form_groups
from repro.experiments import runner
from repro.experiments.config import QUICK
from repro.experiments.runner import build_workload
from repro.mpi.ops import (
    Allgather,
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    Isend,
    Marker,
    Op,
    Recv,
    Reduce,
    Send,
    SendRecv,
    Wait,
)
from repro.mpi.runtime import MpiRuntime
from repro.mpi.trace import SCRIPT_OPS, script_trace
from repro.mpi.tracer import Tracer
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

N_HAND = 6
#: explicit participant sets: four ranks, and a non-power-of-two three
QUAD = (0, 2, 3, 5)
TRIO = (1, 3, 4)


def hand_program(rank):
    """Every op kind the runtime runs, every collective with default and
    explicit participants, on a non-power-of-two communicator."""
    yield Marker(label="start")
    yield Compute(seconds=0.01)
    yield Barrier()
    yield Bcast(root=2, nbytes=1000)
    yield Reduce(root=1, nbytes=2000, tag=1)
    yield Allreduce(nbytes=300, tag=2)
    yield Allgather(nbytes=400, tag=3)
    if rank in QUAD:
        yield Allreduce(nbytes=500, participants=QUAD, tag=4)
        yield Bcast(root=3, nbytes=600, participants=QUAD, tag=5)
        yield Barrier(participants=QUAD, tag=6)
    if rank in TRIO:
        yield Allgather(nbytes=700, participants=TRIO, tag=7)
        yield Reduce(root=4, nbytes=800, participants=TRIO, tag=8)
        yield Allreduce(nbytes=900, participants=TRIO, tag=9)
    yield SendRecv(dst=(rank + 1) % N_HAND, send_nbytes=100, src=(rank - 1) % N_HAND, tag=10)
    yield Isend(dst=(rank + 2) % N_HAND, nbytes=50, tag=11)
    yield Recv(src=(rank - 2) % N_HAND, tag=11)
    if rank % 2 == 0:
        yield Send(dst=rank + 1, nbytes=70, tag=12)
    else:
        yield Recv(src=rank - 1, tag=12)
    yield Wait(seconds=0.001)


def simulated_trace(program, n_ranks, memory):
    """The reference: a failure-free run with the tracer attached."""
    sim = Simulator()
    cluster = Cluster(sim, GIDEON_300.with_nodes(max(GIDEON_300.n_nodes, n_ranks)))
    tracer = Tracer()
    runtime = MpiRuntime(sim, cluster, n_ranks, rng=RandomStreams(0), tracer=tracer)
    runtime.set_memory(memory)
    runtime.launch(program)
    runtime.run_to_completion(limit_s=1e8)
    return tracer.log


def records(trace):
    return sorted((r.src, r.dst, r.nbytes, r.tag) for r in trace)


CASES = {
    "hpl-16": ("hpl", 16, {**QUICK.hpl_options, "max_steps": 4}),
    "cg-16": ("cg", 16, {**QUICK.cg_options, "max_steps": 3}),
    "sp-16": ("sp", 16, {**QUICK.sp_options, "max_steps": 2}),
    "ring-8": ("ring", 8, {"iterations": 3}),
    "halo2d-16": ("halo2d", 16, {"iterations": 3}),
    "master-worker-6": ("master-worker", 6, {"iterations": 2}),
    "all-to-all-5": ("all-to-all", 5, {"iterations": 2}),
    "halo2d-16-units-on-12": ("halo2d", 12, {"n_units": 16, "iterations": 3}),
    "cg-16-units-on-12": ("cg", 12, {"n_units": 16, **QUICK.cg_options, "max_steps": 3}),
}


@pytest.mark.parametrize("case", list(CASES))
def test_script_trace_equals_a_traced_run(case):
    name, n, options = CASES[case]
    workload = build_workload(name, n, options)
    expected = simulated_trace(workload.program_factory(), n, workload.memory_map())
    got = script_trace(workload.program, n)
    assert len(expected) > 0
    assert records(got) == records(expected)
    assert all(r.timestamp == 0.0 for r in got)
    for size in (None, 4):
        assert (form_groups(got, max_group_size=size, n_ranks=n).groupset
                == form_groups(expected, max_group_size=size, n_ranks=n).groupset)


def test_script_trace_of_every_collective_kind_equals_a_traced_run():
    expected = simulated_trace(hand_program, N_HAND, [1 << 20] * N_HAND)
    got = script_trace(hand_program, N_HAND)
    assert records(got) == records(expected)
    # every collective tag sent something
    assert {r.tag for r in got} >= {1_000_000 + t for t in range(10)}
    assert (form_groups(got, max_group_size=3, n_ranks=N_HAND).groupset
            == form_groups(expected, max_group_size=3, n_ranks=N_HAND).groupset)


def test_script_trace_reads_exactly_the_ops_the_runtime_runs():
    assert SCRIPT_OPS == {SendRecv, Compute, Send, Recv, Marker} | set(MpiRuntime._OP_DISPATCH)


def test_script_trace_rejects_what_the_runtime_rejects():
    class Probe(Op):
        pass

    class LoudSend(Send):
        pass

    # op classes are matched by exact type, as _run_rank dispatches them
    for op in (Probe(), LoudSend(dst=1, nbytes=8)):
        with pytest.raises(TypeError, match="unsupported operation type"):
            script_trace(lambda rank: [op], 2)
    for program in (lambda rank: [Send(dst=4, nbytes=8)],
                    lambda rank: [SendRecv(dst=7, send_nbytes=8, src=0)],
                    lambda rank: [Barrier(participants=(0, 5))] if rank == 0 else []):
        with pytest.raises(ValueError, match="out of range"):
            script_trace(program, 4)


def test_obtain_trace_builds_no_simulator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the trace must not simulate")

    runner.clear_caches()
    monkeypatch.setattr(Simulator, "__init__", refuse)
    trace = runner.obtain_trace("hpl", 16, QUICK.hpl_options)
    assert trace is runner.obtain_trace("hpl", 16, dict(QUICK.hpl_options))
    assert len(trace) > 0
    runner.clear_caches()
