"""Figure 12: NPB SP: summed checkpoint time of GP is below NORM across the square process counts.

Regenerates the data behind the paper's Figure 12 at the paper's scales and
checks the qualitative claim (ordering/trend), not absolute seconds.
"""

import pytest

from repro.experiments import figures
from conftest import bench_profile, run_experiment

FULL = bench_profile()


@pytest.mark.benchmark(group="figure-12")
def test_fig12_sp(benchmark):
    """Reproduce Figure 12 and verify its qualitative shape."""
    result = run_experiment(benchmark, lambda: figures.FIGURES["figure12"].run(profile=FULL))
    ckpt = {s.name: s for s in result['checkpoint_series']}
    largest = ckpt['NORM'].x[-1]
    assert ckpt['GP'].as_dict()[largest] < ckpt['NORM'].as_dict()[largest]
