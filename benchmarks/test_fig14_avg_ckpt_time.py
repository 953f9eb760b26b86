"""Figure 14: Average time per checkpoint on remote storage: GP is cheaper than MPICH-VCL at the largest scale (and the gap widens with scale).

Regenerates the data behind the paper's Figure 14 at the paper's scales and
checks the qualitative claim (ordering/trend), not absolute seconds.
"""

import pytest

from repro.experiments import figures
from conftest import bench_profile, run_experiment

FULL = bench_profile()


@pytest.mark.benchmark(group="figure-14")
def test_fig14_avg_ckpt_time(benchmark):
    """Reproduce Figure 14 and verify its qualitative shape."""
    result = run_experiment(benchmark, lambda: figures.FIGURES["figure14"].run(profile=FULL))
    series = {s.name: s for s in result['series']}
    assert series['GP'].y[-1] < series['VCL'].y[-1]
