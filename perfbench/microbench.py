"""Isolated per-call timings of single layers at fixed sizes.

Each case times one call on inputs drawn from the seed, outside any
workload. The gap between the open and closed ``_lagrange_d1_d2`` cases
is the cost of the open-curve end weights.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from curveflow import geometry, hasimoto, storage, vfe
from workloads import _helix, _perturbed_circle

REPEATS = 9
MIN_REPEAT_S = 0.004


def _cases(seed: int, work_dir: Path) -> dict:
    rng = np.random.default_rng(seed)
    closed = {n: _perturbed_circle(rng, n) for n in (256, 1024)}
    open_ = {n: _helix(rng.uniform(0.8, 1.2), rng.uniform(0.3, 0.7), n) for n in (256, 1024)}
    helix = open_[1024]
    spec = hasimoto.HasimotoSolitonSpec(rng.uniform(0.8, 1.2), rng.uniform(0.3, 0.7))
    kink, _ = hasimoto.hasimoto_soliton(spec, 0.0, np.linspace(-10.0, 10.0, 512))
    grid = -30.0 + (60.0 / 1024) * np.arange(1024)
    psi = hasimoto.hasimoto_soliton_filament(spec, 0.0, grid)
    periodic = hasimoto.FilamentFunction(psi.grid_start, psi.grid_step, psi.values,
                                         psi.gauge_A, periodic=True)
    helix_psi = hasimoto.hasimoto_transform(geometry.frenet(helix))
    pts256 = closed[256].points.copy()
    path = Path(work_dir) / "micro.curve"

    def stencil(curve):
        pts, h = curve.points, geometry.segment_lengths(curve)
        return lambda: geometry._lagrange_d1_d2(pts, h, curve.closed)

    return {
        "geometry._lagrange_d1_d2.closed_n256_us": stencil(closed[256]),
        "geometry._lagrange_d1_d2.open_n256_us": stencil(open_[256]),
        "geometry._lagrange_d1_d2.closed_n1024_us": stencil(closed[1024]),
        "geometry._lagrange_d1_d2.open_n1024_us": stencil(open_[1024]),
        "geometry.segment_lengths.n256_us": lambda: geometry.segment_lengths(closed[256]),
        "geometry.resample_arclength.n256_us":
            lambda: geometry.resample_arclength(closed[256], 256),
        "geometry.frenet.n1024_3d_us": lambda: geometry.frenet(helix),
        "geometry.SampledCurve.n256_us": lambda: geometry.SampledCurve(2, True, pts256),
        "vfe.binormal_velocity.n512_us": lambda: vfe.binormal_velocity(kink),
        "hasimoto.nlcse_step.periodic_n1024_us": lambda: hasimoto.nlcse_step(periodic, 1e-3),
        "hasimoto.nlcse_step.clamped_n1024_us": lambda: hasimoto.nlcse_step(psi, 1e-3),
        "hasimoto.reconstruct_frame.n1024_us": lambda: hasimoto.reconstruct_frame(helix_psi),
        "storage.write_curve.n256_us": lambda: storage.write_curve(path, closed[256]),
    }


def _time_case(fn) -> dict:
    fn()
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= MIN_REPEAT_S:
            break
        calls *= 2
    per_call = [elapsed / calls]
    for _ in range(REPEATS - 1):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call.append((time.perf_counter() - t0) / calls)
    q1, median, q3 = statistics.quantiles(per_call, n=4)
    return {"median_us": median * 1e6, "q1_us": q1 * 1e6, "q3_us": q3 * 1e6,
            "repeats": REPEATS, "calls_per_repeat": calls}


def run(seed: int, work_dir: Path) -> dict:
    """Median and quartiles of one call, in microseconds, for every case."""
    return {name: _time_case(fn) for name, fn in _cases(seed, work_dir).items()}
