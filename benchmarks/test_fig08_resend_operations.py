"""Figure 8: Number of resend operations during restart: GP1 needs at least as many as GP/GP4.

Regenerates the data behind the paper's Figure 8 at the paper's scales and
checks the qualitative claim (ordering/trend), not absolute seconds.
"""

import pytest

from repro.experiments import figures
from conftest import bench_profile, run_experiment

FULL = bench_profile()


@pytest.mark.benchmark(group="figure-8")
def test_fig08_resend_operations(benchmark):
    """Reproduce Figure 8 and verify its qualitative shape."""
    result = run_experiment(benchmark, lambda: figures.FIGURES["figure8"].run(profile=FULL))
    series = {s.name: s for s in result['series']}
    assert all(a >= b for a, b in zip(series['GP1'].y, series['GP'].y))
