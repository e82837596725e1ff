"""Property tests: resampling, curvature under similarity, storage round trips."""
from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.transform import Rotation

from curveflow import storage
from curveflow.flow import DiagnosticRecord, FlowTrajectory
from curveflow.geometry import SampledCurve, curve_diameter, frenet, resample_arclength
from curveflow.hasimoto import FilamentFunction

BOUNDED = settings(max_examples=50, deadline=None)
ROUND_TRIP = 1e-12


@st.composite
def smooth_curves(draw, closed=None):
    """A circle or arc with three low Fourier modes, 2-D or 3-D, 64 to 256 points.

    The mode amplitudes decay as 0.1/k^2, which keeps the speed of the
    parametrization above 0.36.  The curves turn by at most about 0.25 rad
    per segment.
    """
    dim = draw(st.sampled_from((2, 3)))
    closed = draw(st.booleans()) if closed is None else closed
    n = draw(st.integers(64, 256))
    coef = draw(arrays(float, (3, 2, dim), elements=st.floats(-1.0, 1.0)))
    span = 2.0 * np.pi if closed else draw(st.floats(1.0, 5.0))
    t = np.linspace(0.0, span, n, endpoint=not closed)
    pts = np.zeros((n, dim))
    pts[:, 0], pts[:, 1] = np.cos(t), np.sin(t)
    for k in range(1, 4):
        pts += (0.1 / k**2) * (np.cos(k * t)[:, None] * coef[k - 1, 0]
                               + np.sin(k * t)[:, None] * coef[k - 1, 1])
    return SampledCurve(dim, closed, pts)


@BOUNDED
@given(smooth_curves(closed=False), st.integers(16, 256))
def test_resample_keeps_open_endpoints(curve, n):
    out = resample_arclength(curve, n)
    np.testing.assert_array_equal(out.points[[0, -1]], curve.points[[0, -1]])


@BOUNDED
@given(smooth_curves())
def test_resample_is_idempotent(curve):
    once = resample_arclength(curve, curve.n)
    twice = resample_arclength(once, curve.n)
    moved = np.linalg.norm(twice.points - once.points, axis=1).max()
    assert moved <= 1e-6 * curve_diameter(once.points)


@BOUNDED
@given(smooth_curves(), st.integers(0, 2**32 - 1),
       arrays(float, 3, elements=st.floats(-10.0, 10.0)), st.floats(0.1, 10.0))
def test_curvature_under_rigid_motion_and_scaling(curve, seed, shift, lam):
    if curve.dimension == 2:
        angle = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    else:
        rot = Rotation.random(random_state=seed).as_matrix()
    kappa = frenet(curve).curvature
    tol = 1e-9 * np.abs(kappa).max()
    scaled = curve.with_points(lam * curve.points)
    np.testing.assert_allclose(lam * frenet(scaled).curvature, kappa, rtol=0, atol=tol)
    # a translated point is rounded to its new magnitude, so the tolerance
    # grows with the coordinates (the curves themselves span about 2)
    moved = curve.with_points(curve.points @ rot.T + shift[:curve.dimension])
    np.testing.assert_allclose(frenet(moved).curvature, kappa, rtol=0,
                               atol=tol * max(1.0, np.abs(moved.points).max()))


finite = st.floats(-1e6, 1e6)


@BOUNDED
@given(smooth_curves(), arrays(float, (3, 2), elements=finite), st.integers(4, 64),
       st.floats(1e-6, 1e3))
def test_storage_round_trips(curve, scalars, m, step):
    values = np.random.default_rng(m).normal(size=(m, 2)) * scalars[2, 0]
    fil = FilamentFunction(scalars[0, 0], step, values[:, 0] + 1j * values[:, 1],
                           gauge_A=scalars[0, 1], time=scalars[1, 0])
    traj = FlowTrajectory(stop_reason="stop-time")
    for t in scalars[:, 1]:
        traj.append(float(t), curve, DiagnosticRecord(float(t), 1.0, 1.0))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        back = storage.read_curve(storage.write_curve(out / "c.curve", curve))
        assert (back.dimension, back.closed) == (curve.dimension, curve.closed)
        np.testing.assert_allclose(back.points, curve.points, rtol=ROUND_TRIP, atol=0)

        got = storage.read_filament(storage.write_filament(out / "f.json", fil))
        for name in ("grid_start", "grid_step", "gauge_A", "time"):
            want = getattr(fil, name)
            assert abs(getattr(got, name) - want) <= ROUND_TRIP * abs(want)
        np.testing.assert_allclose(got.values, fil.values, rtol=ROUND_TRIP, atol=0)

        storage.write_trajectory(out / "traj", traj)
        again = storage.read_trajectory(out / "traj")
        np.testing.assert_allclose(again.times, traj.times, rtol=ROUND_TRIP, atol=0)
        assert again.stop_reason == traj.stop_reason
        for a, b in zip(again.frames, traj.frames):
            np.testing.assert_allclose(a.points, b.points, rtol=ROUND_TRIP, atol=0)
