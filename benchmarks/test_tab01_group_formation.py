"""Table 1: Trace-assisted group formation for HPL with 32 processes (8x4 grid) yields 4 groups of 8 with round-robin ranks, matching the paper's Table 1 exactly.

Regenerates the data behind the paper's Table 1 at the paper's scales and
checks the qualitative claim (ordering/trend), not absolute seconds.
"""

import pytest

from repro.experiments import figures
from conftest import bench_profile, run_experiment

FULL = bench_profile()


@pytest.mark.benchmark(group="table-1")
def test_tab01_group_formation(benchmark):
    """Reproduce Table 1 and verify its qualitative shape."""
    result = run_experiment(benchmark, lambda: figures.FIGURES["table1"].run(profile=FULL))
    groupset = result['groupset']
    expected = {tuple(range(c, 32, 4)) for c in range(4)}
    assert set(groupset.groups) == expected
