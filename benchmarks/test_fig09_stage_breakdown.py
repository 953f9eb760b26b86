"""Figure 9: Checkpoint time breakdown: the image dump ('checkpoint' stage) is scale-independent, while NORM's coordination stage grows to dominate at 128 processes and GP keeps it minimal.

Regenerates the data behind the paper's Figure 9 at the paper's scales and
checks the qualitative claim (ordering/trend), not absolute seconds.
"""

import pytest

from repro.experiments import figures
from conftest import bench_profile, run_experiment

FULL = bench_profile()


@pytest.mark.benchmark(group="figure-9")
def test_fig09_stage_breakdown(benchmark):
    """Reproduce Figure 9 and verify its qualitative shape."""
    result = run_experiment(benchmark, lambda: figures.FIGURES["figure9"].run(profile=FULL))
    table = result['table']
    rows = {(r[0], r[1]): dict(zip(table.columns, r)) for r in table.rows}
    scales = sorted({r[0] for r in table.rows})
    small, large = scales[0], scales[-1]
    assert rows[(large, 'NORM')]['coordination'] > rows[(small, 'NORM')]['coordination']
    assert rows[(large, 'GP')]['coordination'] < rows[(large, 'NORM')]['coordination']
