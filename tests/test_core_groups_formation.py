"""Tests for group definitions (GroupSet) and Algorithm 2 (trace-assisted formation)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.formation import form_groups, grouping_quality
from repro.core.groups import (
    GroupSet,
    default_max_group_size,
    intra_group_traffic_fraction,
)
from repro.mpi.trace import TraceLog, TraceRecord


# ------------------------------------------------------------------------------ GroupSet
def test_groupset_single_and_singletons():
    single = GroupSet.single(4)
    assert single.n_groups == 1 and single.members(2) == (0, 1, 2, 3)
    singles = GroupSet.singletons(4)
    assert singles.n_groups == 4 and singles.members(2) == (2,)


def test_groupset_contiguous_blocks():
    gs = GroupSet.contiguous(10, 4)
    assert [len(g) for g in gs.groups] == [3, 3, 2, 2]
    assert gs.members(0) == (0, 1, 2)
    with pytest.raises(ValueError):
        GroupSet.contiguous(3, 5)


def test_groupset_round_robin_matches_table1_layout():
    gs = GroupSet.round_robin(32, 4)
    assert gs.members(0) == (0, 4, 8, 12, 16, 20, 24, 28)
    assert gs.members(3) == (3, 7, 11, 15, 19, 23, 27, 31)


def test_groupset_validation_rejects_overlap_and_out_of_range():
    with pytest.raises(ValueError):
        GroupSet(groups=((0, 1), (1, 2)), n_ranks=4)
    with pytest.raises(ValueError):
        GroupSet(groups=((0, 9),), n_ranks=4)
    with pytest.raises(ValueError):
        GroupSet(groups=((1, 0),), n_ranks=4)  # unsorted
    with pytest.raises(ValueError):
        GroupSet(groups=((),), n_ranks=4)


def test_groupset_uncovered_ranks_are_singletons():
    gs = GroupSet.from_lists([[0, 1]], n_ranks=4)
    assert gs.members(3) == (3,)
    assert gs.group_index_of(3) != gs.group_index_of(2)
    assert len(gs.all_groups()) == 3
    assert gs.covered_ranks() == {0, 1}


def test_groupset_same_group_and_sizes():
    gs = GroupSet.from_lists([[0, 1, 2], [3, 4]], n_ranks=6)
    assert gs.same_group(0, 2)
    assert not gs.same_group(2, 3)
    assert gs.max_group_size == 3
    assert gs.mean_group_size == pytest.approx((3 + 2 + 1) / 3)


def test_groupset_rank_range_checked():
    gs = GroupSet.single(4)
    with pytest.raises(ValueError):
        gs.members(7)


def test_default_max_group_size_is_ceil_sqrt():
    assert default_max_group_size(128) == 12
    assert default_max_group_size(64) == 8
    assert default_max_group_size(1) == 1
    with pytest.raises(ValueError):
        default_max_group_size(0)


def test_intra_group_traffic_fraction():
    gs = GroupSet.from_lists([[0, 1], [2, 3]], n_ranks=4)
    pair_bytes = {(0, 1): 100, (2, 3): 100, (1, 2): 50}
    assert intra_group_traffic_fraction(gs, pair_bytes) == pytest.approx(200 / 250)
    assert intra_group_traffic_fraction(gs, {}) == 1.0
    with pytest.raises(ValueError):
        intra_group_traffic_fraction(gs, {(0, 1): -5})


# ---------------------------------------------------------------------------- Algorithm 2
def _community_trace(n_groups=4, size=4, heavy=1_000_000, light=10):
    """A trace with heavy traffic inside blocks of `size` ranks, light across."""
    records = []
    n = n_groups * size
    for g in range(n_groups):
        base = g * size
        for i in range(size):
            for j in range(i + 1, size):
                records.append(TraceRecord(base + i, base + j, heavy))
    for g in range(n_groups - 1):
        records.append(TraceRecord(g * size, (g + 1) * size, light))
    return TraceLog(records, n_ranks=n)


def test_formation_recovers_planted_communities():
    trace = _community_trace()
    result = form_groups(trace, max_group_size=4)
    expected = {tuple(range(g * 4, g * 4 + 4)) for g in range(4)}
    assert set(result.groupset.groups) == expected
    assert result.intra_fraction > 0.99


def test_formation_respects_max_group_size():
    trace = _community_trace(n_groups=2, size=6)
    result = form_groups(trace, max_group_size=3)
    assert result.groupset.max_group_size <= 3
    assert result.skipped_pairs > 0


def test_formation_default_bound_is_sqrt_n():
    trace = _community_trace(n_groups=4, size=4)
    result = form_groups(trace)
    assert result.max_group_size == default_max_group_size(16) == 4


def test_formation_sorts_by_size_then_count():
    # pair (0,1) has many small messages; pair (2,3) fewer but bigger bytes;
    # with G=2 both become their own groups, and (1,2) cross traffic is skipped.
    records = [TraceRecord(0, 1, 10) for _ in range(100)] + [TraceRecord(2, 3, 10_000)]
    records.append(TraceRecord(1, 2, 1))
    trace = TraceLog(records, n_ranks=4)
    result = form_groups(trace, max_group_size=2)
    assert (0, 1) in result.groupset.groups
    assert (2, 3) in result.groupset.groups


def test_formation_unrelated_processes_not_merged():
    """Processes that never communicate must not end up in one group."""
    records = [TraceRecord(0, 1, 100), TraceRecord(2, 3, 100)]
    trace = TraceLog(records, n_ranks=6)
    result = form_groups(trace, max_group_size=6)
    assert result.groupset.same_group(0, 1)
    assert result.groupset.same_group(2, 3)
    assert not result.groupset.same_group(0, 2)
    # ranks 4 and 5 never communicate: implicit singletons
    assert result.groupset.members(4) == (4,)


def test_formation_ignores_self_messages():
    trace = TraceLog([TraceRecord(0, 0, 1000), TraceRecord(0, 1, 10)], n_ranks=2)
    result = form_groups(trace)
    assert result.groupset.same_group(0, 1)


def test_formation_empty_trace_requires_n_ranks():
    with pytest.raises(ValueError):
        form_groups(TraceLog())
    result = form_groups(TraceLog(), n_ranks=4)
    assert len(result.groupset.all_groups()) == 4  # all singletons


def test_formation_group_merging_combines_two_groups():
    # (0,1) and (2,3) form first; then the heavy (1,2) pair merges them when G allows
    records = [
        TraceRecord(0, 1, 1000),
        TraceRecord(2, 3, 900),
        TraceRecord(1, 2, 800),
    ]
    result = form_groups(TraceLog(records, n_ranks=4), max_group_size=4)
    assert result.groupset.members(0) == (0, 1, 2, 3)


def test_formation_is_deterministic():
    trace = _community_trace()
    a = form_groups(trace, max_group_size=4)
    b = form_groups(trace, max_group_size=4)
    assert a.groupset.groups == b.groupset.groups


def test_grouping_quality_metrics():
    trace = _community_trace()
    gs = GroupSet.contiguous(16, 4)
    quality = grouping_quality(gs, trace)
    assert quality["intra_fraction"] > 0.9
    assert quality["max_group_size"] == 4
    worse = grouping_quality(GroupSet.singletons(16), trace)
    assert worse["intra_fraction"] == 0.0
    assert worse["logged_bytes"] > 0


@given(
    n_ranks=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=1000),
    g=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_formation_invariants_on_random_traces(n_ranks, seed, g):
    """Algorithm 2 always yields disjoint groups within the size bound."""
    import numpy as np

    rng = np.random.default_rng(seed)
    records = []
    for _ in range(60):
        a, b = rng.integers(0, n_ranks, size=2)
        records.append(TraceRecord(int(a), int(b), int(rng.integers(1, 10_000))))
    trace = TraceLog(records, n_ranks=n_ranks)
    result = form_groups(trace, max_group_size=g, n_ranks=n_ranks)
    groupset = result.groupset
    # disjoint cover of all ranks
    all_ranks = [r for grp in groupset.all_groups() for r in grp]
    assert sorted(all_ranks) == list(range(n_ranks))
    # size bound respected
    assert groupset.max_group_size <= max(g, 1)
    # quality metric consistent: intra fraction in [0, 1]
    assert 0.0 <= result.intra_fraction <= 1.0
