"""Figure 3: Conceptual comparison: global coordination has the widest scope and no logging, pure message logging has no coordination but logs everything, the group-based scheme sits in between.

Regenerates the data behind the paper's Figure 3 at the paper's scales and
checks the qualitative claim (ordering/trend), not absolute seconds.
"""

import pytest

from repro.experiments import figures
from conftest import bench_profile, run_experiment

FULL = bench_profile()


@pytest.mark.benchmark(group="figure-3")
def test_fig03_protocol_comparison(benchmark):
    """Reproduce Figure 3 and verify its qualitative shape."""
    result = run_experiment(benchmark, lambda: figures.FIGURES["figure3"].run(profile=FULL))
    table = result['table']
    logged = dict(zip(table.column('scheme'), table.column('logged bytes fraction')))
    assert logged['coordinated (NORM)'] == 0.0
    assert logged['message logging (GP1)'] == 1.0
    assert 0.0 < logged['group-based (GP)'] < 1.0
