"""Figure 5: HPL execution time with one checkpoint at t=60s: the group-based scheme is at least competitive with the global coordinated checkpoint, and its advantage grows with scale.

Regenerates the data behind the paper's Figure 5 at the paper's scales and
checks the qualitative claim (ordering/trend), not absolute seconds.
"""

import pytest

from repro.experiments import figures
from conftest import bench_profile, run_experiment

FULL = bench_profile()


@pytest.mark.benchmark(group="figure-5")
def test_fig05_execution_time(benchmark):
    """Reproduce Figure 5 and verify its qualitative shape."""
    result = run_experiment(benchmark, lambda: figures.FIGURES["figure5"].run(profile=FULL))
    gp = next(s for s in result['series'] if s.name == 'GP')
    norm = next(s for s in result['series'] if s.name == 'NORM')
    assert gp.y[-1] <= norm.y[-1] * 1.05
