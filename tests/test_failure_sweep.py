"""``examples/failure_sweep.py --profile quick --measured`` against its golden.

The example prints the expected-loss table, the failure-rate table and the
measured-vs-analytic table.  ``tests/data/failure_tables_golden.txt``
(written by ``tools/make_parity_golden.py``) holds those three tables without
the run-specific ``store:``, ``[campaign]`` and ``re-run`` lines.  A cold run
into a fresh store must print them byte for byte and count every scenario it
simulated, probes included; a warm rerun of the same store must print them
again and simulate nothing.
"""

import importlib.util
import os

_HERE = os.path.dirname(__file__)
_spec = importlib.util.spec_from_file_location(
    "failure_sweep_example", os.path.join(_HERE, "..", "examples", "failure_sweep.py"))
failure_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(failure_sweep)

GOLDEN = os.path.join(_HERE, "data", "failure_tables_golden.txt")
RUN_LINE_PREFIXES = ("store: ", "[campaign] ", "re-run ")


def _run(capsys, db):
    assert failure_sweep.main(["--db", db, "--workers", "1", "--profile", "quick",
                               "--measured"]) == 0
    out = capsys.readouterr().out
    tables = "".join(line for line in out.splitlines(keepends=True)
                     if not line.startswith(RUN_LINE_PREFIXES))
    (executed,) = [line for line in out.splitlines() if line.startswith("[campaign] ")]
    return tables, executed


def test_quick_measured_tables_match_the_golden_cold_and_warm(tmp_path, capsys):
    with open(GOLDEN) as fh:
        golden = fh.read()
    db = str(tmp_path / "failures.sqlite")

    cold, executed = _run(capsys, db)
    assert cold == golden
    # 8 expected-loss rows, 3 GP1 probes and 9 killed runs
    assert executed.startswith("[campaign] executed 20 scenario(s) this run")

    warm, executed = _run(capsys, db)
    assert warm == golden
    assert executed.startswith("[campaign] executed 0 scenario(s) this run")
