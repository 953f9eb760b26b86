"""Figure 11: NPB CG: summed checkpoint time of GP is far below NORM and comparable to GP1; restarts stay close to NORM.

Regenerates the data behind the paper's Figure 11 at the paper's scales and
checks the qualitative claim (ordering/trend), not absolute seconds.
"""

import pytest

from repro.experiments import figures
from conftest import bench_profile, run_experiment

FULL = bench_profile()


@pytest.mark.benchmark(group="figure-11")
def test_fig11_cg(benchmark):
    """Reproduce Figure 11 and verify its qualitative shape."""
    result = run_experiment(benchmark, lambda: figures.FIGURES["figure11"].run(profile=FULL))
    ckpt = {s.name: s for s in result['checkpoint_series']}
    largest = ckpt['NORM'].x[-1]
    assert ckpt['GP'].as_dict()[largest] < ckpt['NORM'].as_dict()[largest]
