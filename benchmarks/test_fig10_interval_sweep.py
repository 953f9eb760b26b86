"""Figure 10: Multiple checkpoints at fixed intervals (HPL N=56000, 128 processes): with no checkpoints GP pays the logging overhead, with frequent checkpoints it completes at least as many checkpoints as NORM in competitive time.

Regenerates the data behind the paper's Figure 10 at the paper's scales and
checks the qualitative claim (ordering/trend), not absolute seconds.
"""

import pytest

from repro.experiments import figures
from conftest import bench_profile, run_experiment

FULL = bench_profile()


@pytest.mark.benchmark(group="figure-10")
def test_fig10_interval_sweep(benchmark):
    """Reproduce Figure 10 and verify its qualitative shape."""
    result = run_experiment(benchmark, lambda: figures.FIGURES["figure10"].run(profile=FULL))
    series = {s.name: s for s in result['series']}
    assert series['GP time'].as_dict()[0.0] >= series['NORM time'].as_dict()[0.0] - 1e-6
    shortest = min(x for x in series['GP #CKPT'].x if x > 0)
    assert series['GP #CKPT'].as_dict()[shortest] >= series['NORM #CKPT'].as_dict()[shortest]
