"""Every call the benchmark makes into curveflow, run once at its smallest size.

The benchmark under ``perfbench/`` is read, never edited, here: a change to
``src/`` that drops or re-signs a name it calls fails this test rather than
the benchmark run.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

# as perfbench/run.py does, leave no bytecode cache beside the benchmark
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
_dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import microbench  # noqa: E402
import workloads  # noqa: E402
sys.dont_write_bytecode = _dont_write_bytecode


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_tiny_workload_pass_passes_its_checks(name, tmp_path):
    w = workloads.WORKLOADS[name]
    inputs = w.make_inputs(7, "tiny", tmp_path)
    checks = w.check(inputs, w.run_once(inputs, tmp_path / "out"))
    assert checks
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]


def test_every_microbench_case_runs(tmp_path):
    for fn in microbench._cases(7, tmp_path).values():
        fn()
