"""Tests for resources, stores and RNG streams (repro.sim.primitives / rng)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.primitives import PriorityStore, Resource, Store
from repro.sim.rng import RandomStreams


# ----------------------------------------------------------------------- Resource
def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    reqs = [res.request() for _ in range(3)]
    sim.run()
    granted = [r for r in reqs if r.processed]
    assert len(granted) == 2
    assert res.count == 2
    assert res.queue_length == 1


def test_resource_release_grants_next():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.request()
    second = res.request()
    sim.run()
    assert first.processed and not second.processed
    res.release(first)
    sim.run()
    assert second.processed
    assert res.count == 1


def test_resource_release_unqueued_request_is_noop():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    first = res.request()
    sim.run()
    res.release(first)
    res.release(first)  # double release must not corrupt state
    assert res.count == 0


def test_resource_priority_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    hold = res.request()
    low = res.request(priority=10)
    high = res.request(priority=1)
    sim.run()
    res.release(hold)
    sim.run()
    assert high.processed and not low.processed


def test_resource_serialises_processes():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    finish_times = []

    def worker():
        req = res.request()
        yield req
        try:
            yield sim.timeout(1.0)
        finally:
            res.release(req)
        finish_times.append(sim.now)

    for _ in range(3):
        sim.process(worker())
    sim.run()
    assert finish_times == [1.0, 2.0, 3.0]


def test_resource_context_manager_releases():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        req = res.request()
        yield req
        with req:
            yield sim.timeout(1.0)

    sim.process(worker())
    sim.run()
    assert res.count == 0


# ----------------------------------------------------------------------- Store
def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("a")
    ev = store.get()
    sim.run()
    assert ev.value == "a"
    assert len(store) == 0


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    ev = store.get()

    def producer():
        yield sim.timeout(2.0)
        store.put("late")

    sim.process(producer())
    sim.run()
    assert ev.processed and ev.value == "late"


def test_store_filter_matching():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    store.put(3)
    ev = store.get(filter=lambda x: x % 2 == 0)
    sim.run()
    assert ev.value == 2
    assert store.items == [1, 3]


def test_store_multiple_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    first = store.get()
    second = store.get()
    store.put("x")
    store.put("y")
    sim.run()
    assert first.value == "x" and second.value == "y"


def test_store_peek_does_not_remove():
    sim = Simulator()
    store = Store(sim)
    store.put("a")
    assert store.peek() == "a"
    assert len(store) == 1
    assert store.peek(lambda v: v == "b") is None


def test_priority_store_orders_items():
    sim = Simulator()
    store = PriorityStore(sim)
    store.put(3)
    store.put(1)
    store.put(2)
    ev = store.get()
    sim.run()
    assert ev.value == 1


# ----------------------------------------------------------------------- RandomStreams
def test_rng_same_seed_same_sequence():
    a = RandomStreams(7)
    b = RandomStreams(7)
    assert [a.uniform("x") for _ in range(5)] == [b.uniform("x") for _ in range(5)]


def test_rng_different_streams_independent_of_consumption_order():
    a = RandomStreams(7)
    b = RandomStreams(7)
    # consume stream "y" first on one of them; stream "x" must be unaffected
    _ = [b.uniform("y") for _ in range(10)]
    assert a.uniform("x") == b.uniform("x")


def test_rng_different_seeds_differ():
    assert RandomStreams(1).uniform("x") != RandomStreams(2).uniform("x")


def test_rng_negative_seed_rejected():
    with pytest.raises(ValueError):
        RandomStreams(-1)


def test_rng_exponential_mean_positive_required():
    with pytest.raises(ValueError):
        RandomStreams(0).exponential("x", 0.0)


def test_rng_bernoulli_bounds():
    rng = RandomStreams(0)
    with pytest.raises(ValueError):
        rng.bernoulli("x", 1.5)
    assert rng.bernoulli("x", 1.0) is True
    assert rng.bernoulli("x", 0.0) is False


def test_rng_lognormal_jitter_zero_sigma_is_identity():
    rng = RandomStreams(0)
    assert rng.lognormal_jitter("x", 2.5, 0.0) == 2.5


def test_rng_lognormal_jitter_negative_base_rejected():
    with pytest.raises(ValueError):
        RandomStreams(0).lognormal_jitter("x", -1.0, 0.1)


def test_rng_child_streams_differ_from_parent():
    parent = RandomStreams(5)
    child = parent.child("replica")
    assert parent.uniform("x") != child.uniform("x")


def test_rng_spawn_count():
    replicas = RandomStreams(5).spawn(3)
    assert len(replicas) == 3
    values = {r.uniform("x") for r in replicas}
    assert len(values) == 3  # all distinct


def test_rng_reset_replays_stream():
    rng = RandomStreams(9)
    first = rng.uniform("x")
    rng.reset("x")
    assert rng.uniform("x") == first


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_rng_jitter_is_positive(seed):
    rng = RandomStreams(seed)
    assert rng.lognormal_jitter("jitter", 1.0, 0.3) > 0


@given(p=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_rng_bernoulli_returns_bool(p):
    assert isinstance(RandomStreams(3).bernoulli("b", p), bool)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       p=st.floats(min_value=0.0, max_value=1.0),
       trials=st.integers(min_value=0, max_value=200))
@settings(max_examples=50, deadline=None)
def test_rng_bernoulli_count_equals_scalar_draws(seed, p, trials):
    """One batched draw consumes the stream exactly like ``trials`` scalar
    ``bernoulli`` draws: numpy's ``random(k)`` yields the same doubles."""
    batched, scalar = RandomStreams(seed), RandomStreams(seed)
    assert batched.bernoulli_count("stall", p, trials) == sum(
        scalar.bernoulli("stall", p) for _ in range(trials))
    # the stream is left in the same state
    assert batched.uniform("stall") == scalar.uniform("stall")


def test_rng_bernoulli_count_doubles_match_scalar_random():
    batched = RandomStreams(11).stream("x").random(1000)
    scalar = RandomStreams(11).stream("x")
    assert batched.tolist() == [scalar.random() for _ in range(1000)]


def test_rng_bernoulli_count_bounds():
    rng = RandomStreams(0)
    with pytest.raises(ValueError):
        rng.bernoulli_count("x", 1.5, 3)
    assert rng.bernoulli_count("x", 1.0, 4) == 4
    assert rng.bernoulli_count("x", 0.0, 4) == 0
