"""Figure 13: CG with checkpoint images on 4 remote servers: GP completes the same number of checkpoints in no more time than MPICH-VCL, with the gap growing at scale.

Regenerates the data behind the paper's Figure 13 at the paper's scales and
checks the qualitative claim (ordering/trend), not absolute seconds.
"""

import pytest

from repro.experiments import figures
from conftest import bench_profile, run_experiment

FULL = bench_profile()


@pytest.mark.benchmark(group="figure-13")
def test_fig13_remote_storage(benchmark):
    """Reproduce Figure 13 and verify its qualitative shape."""
    result = run_experiment(benchmark, lambda: figures.FIGURES["figure13"].run(profile=FULL))
    series = {s.name: s for s in result['series']}
    largest = series['GP time'].x[-1]
    assert series['GP time'].as_dict()[largest] <= series['VCL time'].as_dict()[largest] * 1.05
    assert series['GP #CKPT'].as_dict()[largest] >= series['VCL #CKPT'].as_dict()[largest]
