"""Figure 7: Total data volume replayed during restart: GP1 (uncoordinated) resends at least as much as the group-based formations.

Regenerates the data behind the paper's Figure 7 at the paper's scales and
checks the qualitative claim (ordering/trend), not absolute seconds.
"""

import pytest

from repro.experiments import figures
from conftest import bench_profile, run_experiment

FULL = bench_profile()


@pytest.mark.benchmark(group="figure-7")
def test_fig07_resend_volume(benchmark):
    """Reproduce Figure 7 and verify its qualitative shape."""
    result = run_experiment(benchmark, lambda: figures.FIGURES["figure7"].run(profile=FULL))
    series = {s.name: s for s in result['series']}
    assert all(a >= b for a, b in zip(series['GP1'].y, series['GP'].y))
