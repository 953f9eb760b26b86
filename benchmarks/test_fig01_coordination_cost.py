"""Figure 1: Aggregate coordination time of one global (LAM/MPI-style) checkpoint of HPL grows with the process count and spikes under unexpected delays.

Regenerates the data behind the paper's Figure 1 at the paper's scales and
checks the qualitative claim (ordering/trend), not absolute seconds.
"""

import pytest

from repro.experiments import figures
from conftest import bench_profile, run_experiment

FULL = bench_profile()


@pytest.mark.benchmark(group="figure-1")
def test_fig01_coordination_cost(benchmark):
    """Reproduce Figure 1 and verify its qualitative shape."""
    result = run_experiment(benchmark, lambda: figures.FIGURES["figure1"].run(profile=FULL))
    series = result['series'][0]
    assert series.y[-1] > series.y[0], 'coordination cost must grow with scale'
