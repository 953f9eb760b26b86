"""Figure 6: Summed checkpoint time: GP is close to GP1 (uncoordinated) and far below NORM; summed restart time: NORM is lowest, GP close behind, GP1 worst.

Regenerates the data behind the paper's Figure 6 at the paper's scales and
checks the qualitative claim (ordering/trend), not absolute seconds.
"""

import pytest

from repro.experiments import figures
from conftest import bench_profile, run_experiment

FULL = bench_profile()


@pytest.mark.benchmark(group="figure-6")
def test_fig06_ckpt_restart_time(benchmark):
    """Reproduce Figure 6 and verify its qualitative shape."""
    result = run_experiment(benchmark, lambda: figures.FIGURES["figure6"].run(profile=FULL))
    ckpt = {s.name: s for s in result['checkpoint_series']}
    largest = ckpt['NORM'].x[-1]
    assert ckpt['GP'].as_dict()[largest] < ckpt['NORM'].as_dict()[largest]
    restart = {s.name: s for s in result['restart_series']}
    assert restart['GP'].as_dict()[largest] <= restart['GP1'].as_dict()[largest] * 1.2
