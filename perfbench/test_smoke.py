"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each workload passes its checks, that one seed repeats its
outputs and counts exactly, that tracing changes neither, that a second
seed gives other inputs, and that run.py refuses to run without sources.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from curveflow import csf, geometry  # noqa: E402


def _run(name: str, seed: int, work_dir: Path) -> worker.Run:
    work_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name]
    return worker.Run(workload, workload.make_inputs(seed, "tiny", work_dir), work_dir)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_is_deterministic_and_trace_invariant(name, tmp_path):
    run = _run(name, 3, tmp_path / "seed3")
    run.one_pass()
    layers = []
    for _ in range(2):
        tracer = tracing.Tracer()
        run.one_pass(tracer)
        layers.append({m: v for m, (v, unit) in
                       tracing.layer_metrics(tracer.summary(), run.counts).items()
                       if unit not in ("s", "us")})
    # the traced passes must repeat the untraced pass's digest and counts
    assert run.failures == []
    assert run.attempted > 4
    assert layers[0] == layers[1]
    assert layers[0]["flow.frames_recorded"] > 0

    other = _run(name, 4, tmp_path / "seed4")
    other.one_pass()
    assert other.failures == []
    assert other.digest != run.digest


def test_tracer_restores_every_binding(tmp_path):
    before = (csf.segment_lengths, geometry.segment_lengths,
              geometry.SampledCurve.__post_init__)
    tracer = tracing.Tracer()
    _run("csf-shrink", 1, tmp_path).one_pass(tracer)
    summary = tracer.summary()
    assert summary["calls"]["cli.main"] == 2
    assert summary["calls"]["csf.evolve"] == 1
    # csf binds geometry names and cli binds storage names, so these spans
    # exist only if the wrappers reach those import sites
    assert summary["under"]["csf.evolve>geometry.arclength_derivatives"] > 0
    assert summary["under"]["cli.cmd_csf_evolve>storage.write_trajectory"] == 1
    assert summary["open_stencil_calls"] == 0
    assert (csf.segment_lengths, geometry.segment_lengths,
            geometry.SampledCurve.__post_init__) == before


def test_run_refuses_a_checkout_without_sources(tmp_path):
    root = HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "filament",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
