from __future__ import annotations

import numpy as np
import pytest

from conftest import circle3, helix3
from curveflow import flow, vfe
from curveflow.csf import curvature_evolution_residual
from curveflow.errors import ConfigError, CurveFlowError
from curveflow.flow import FlowTrajectory, StepOptions, frame_measures
from curveflow.geometry import SampledCurve, hausdorff_distance
from curveflow.vfe import (
    STABILITY_FACTOR,
    BiotSavartOptions,
    biot_savart_velocity,
    binormal_velocity,
    commutator_residual,
    evolve,
    frenet_evolution_residuals,
    rigid_motion_fit,
)


def test_binormal_velocity_of_the_circle():
    # gamma_s x gamma_ss = kappa * binormal = e_z for the unit circle
    v = binormal_velocity(circle3(512))
    assert np.abs(v[:, 2] - 1.0).max() < 1e-3
    assert np.abs(v[:, :2]).max() < 1e-8


def test_step_preserves_arclength_pointwise():
    c = helix3(n=256)
    out = evolve(c, StepOptions(stop_time=1e-5, dt=1e-5)).final
    h0 = np.linalg.norm(np.diff(c.points, axis=0), axis=1)
    h1 = np.linalg.norm(np.diff(out.points, axis=0), axis=1)
    assert np.abs(h1 - h0).max() < 1e-10


def test_evolve_needs_a_space_curve():
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    flat = SampledCurve(2, True, np.column_stack([np.cos(th), np.sin(th)]))
    with pytest.raises(ValueError):
        evolve(flat, StepOptions(stop_time=0.1, cfl=0.1))


def test_evolve_rejects_unstable_dt():
    with pytest.raises(CurveFlowError) as err:
        evolve(circle3(256), StepOptions(stop_time=0.1, dt=0.1))
    assert err.value.token == "cfl-violation"


def test_cfl_above_the_rk4_bound_is_rejected():
    # StepOptions admits cfl up to 1, but RK4 is stable only to STABILITY_FACTOR
    with pytest.raises(ConfigError) as err:
        evolve(circle3(48), StepOptions(stop_time=3.0, cfl=0.9))
    assert err.value.token == "cfl-violation"
    traj = evolve(circle3(48), StepOptions(stop_time=1e-3, cfl=STABILITY_FACTOR))
    assert traj.stop_reason == "stop-time"


@pytest.mark.parametrize("sides, stops", [(5, True), (6, True), (7, True), (8, False)])
def test_singularity_guard_on_regular_polygons(sides, stops):
    # kappa * h_max reads 1.796, 1.333, 1.069 and 0.897: the guard's threshold
    # of 1 is a turn of 2 arcsin(sqrt(2) - 1) ~ 0.854 rad between chords
    traj = evolve(circle3(sides), StepOptions(stop_time=1e-3, cfl=0.1))
    if stops:
        assert (traj.stop_reason, traj.steps_taken) == ("approaching-singularity", 0)
    else:
        assert traj.stop_reason == "stop-time" and traj.steps_taken > 0


def test_first_frame_is_the_input():
    c = helix3(n=128)
    traj = evolve(c, StepOptions(stop_time=1e-4, cfl=0.1))
    assert np.array_equal(traj.frames[0].points, c.points)


def test_circle_translates_along_its_axis():
    c = circle3(256)
    traj = evolve(c, StepOptions(stop_time=0.1, cfl=0.1, record_every=10**9))
    t = traj.final_time
    target = SampledCurve(3, True, c.points + np.array([0.0, 0.0, t]))
    assert hausdorff_distance(traj.final, target) < 2e-4
    length = frame_measures(traj)["length"]
    assert length[-1] == pytest.approx(length[0], rel=1e-9)


def test_helix_moves_rigidly():
    # the screw-motion law holds for the infinite helix; a truncated one
    # only follows it away from the free ends, so fit on the interior
    c = helix3(1.0, 0.5, 2.0, 512)
    traj = evolve(c, StepOptions(stop_time=2e-4, cfl=0.1, record_every=10**9,
                                 resample_every=10**9))
    m = c.n // 10
    trim = lambda cv: SampledCurve(3, False, cv.points[m:-m])
    fit = rigid_motion_fit(trim(traj.frames[0]), trim(traj.final),
                           traj.final_time)
    speed = np.linalg.norm(
        (traj.final.points[m:-m] - c.points[m:-m]) / traj.final_time,
        axis=1).max()
    assert fit.rms_residual < 5e-3 * speed
    # the screw axis of this helix is e_z
    axis = fit.omega / np.linalg.norm(fit.omega)
    assert abs(abs(axis[2]) - 1.0) < 1e-3


def test_rigid_motion_fit_recovers_a_known_screw():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 3))
    c0 = SampledCurve(3, False, pts)
    omega = np.array([0.3, -0.2, 0.5])
    v = np.array([0.1, 0.4, -0.3])
    dt = 1e-3
    c1 = SampledCurve(3, False, pts + dt * (np.cross(omega, pts) + v))
    fit = rigid_motion_fit(c0, c1, dt)
    assert np.allclose(fit.omega, omega, atol=1e-10)
    assert np.allclose(fit.v, v, atol=1e-10)
    assert fit.rms_residual < 1e-12


def test_rigid_motion_fit_rejects_degenerate_input():
    line = np.column_stack([np.linspace(0, 1, 8), np.zeros(8), np.zeros(8)])
    c0 = SampledCurve(3, False, line)
    c1 = SampledCurve(3, False, line + 1e-3)
    with pytest.raises(CurveFlowError) as err:
        rigid_motion_fit(c0, c1, 1e-3)
    assert err.value.token == "rank-deficient"


def test_frenet_laws_hold_on_the_helix():
    traj = evolve(helix3(1.0, 0.5, 2.0, 512),
                  StepOptions(stop_time=4e-4, dt=1e-5, record_every=10))
    res = frenet_evolution_residuals(traj)
    assert not res.skipped.any()
    assert np.nanmax(res.res_kappa) < 1e-3
    assert np.nanmax(res.res_tau) < 1e-2
    assert np.nanmax(res.res_normal) < 1e-2
    assert np.nanmax(res.res_binormal) < 1e-2


def test_frenet_residuals_skip_a_frame_without_torsion():
    # a straight line has no defined torsion anywhere, so its one interior
    # frame has no sample to measure and reads NaN
    line = np.column_stack([np.linspace(0.0, 1.0, 16), np.zeros(16), np.zeros(16)])
    traj = FlowTrajectory()
    for k in range(3):
        traj.append(0.1 * k, SampledCurve(3, False, line))
    res = frenet_evolution_residuals(traj)
    assert res.skipped.tolist() == [True]
    for row in (res.res_kappa, res.res_tau, res.res_normal, res.res_binormal):
        assert np.isnan(row).all()


def test_commutator_vanishes_on_the_helix():
    # zero up to discretization; the floor here is the central-difference
    # truncation of d/dt gamma_s across recorded frames
    traj = evolve(helix3(1.0, 0.5, 2.0, 256),
                  StepOptions(stop_time=4e-4, dt=2e-5, record_every=10))
    res = commutator_residual(traj)
    assert res.values.max() < 2e-4


@pytest.mark.parametrize("residual", [
    curvature_evolution_residual, frenet_evolution_residuals, commutator_residual])
def test_residuals_need_three_aligned_frames(residual):
    def trajectory(sizes):
        traj = FlowTrajectory()
        for k, n in enumerate(sizes):
            traj.append(0.1 * k, circle3(n))
        return traj

    with pytest.raises(ValueError):
        residual(trajectory([64, 64]))
    with pytest.raises(CurveFlowError) as err:
        residual(trajectory([64, 64, 65]))
    assert err.value.token == "unaligned-trajectory"


def test_biot_savart_points_along_the_binormal():
    c = circle3(2048)
    u = biot_savart_velocity(c, 0, BiotSavartOptions(1e-3, 1.0, 256))
    direction = u / np.linalg.norm(u)
    assert np.allclose(direction, [0.0, 0.0, 1.0], atol=1e-6)


def test_biot_savart_log_divergence():
    c = circle3(2048)
    speeds = [np.linalg.norm(biot_savart_velocity(
        c, 0, BiotSavartOptions(eps, 1.0, 256))) for eps in (1e-2, 1e-3)]
    # d|u| / d log(1/eps) ~ kappa = 1
    slope = (speeds[1] - speeds[0]) / np.log(10.0)
    assert slope == pytest.approx(1.0, abs=0.02)


def test_biot_savart_on_an_open_arc_matches_the_closed_curve():
    # the arc's samples 0-256 are the circle's, and the cutoff arc around
    # sample 128 stays inside them
    c = circle3(512)
    arc = SampledCurve(3, False, c.points[:257])
    opts = BiotSavartOptions(1e-3, 0.5)
    assert np.array_equal(biot_savart_velocity(arc, 128, opts),
                          biot_savart_velocity(c, 128, opts))


def test_biot_savart_option_validation():
    with pytest.raises(ValueError):
        BiotSavartOptions(0.1, 0.05)
    with pytest.raises(ValueError):
        BiotSavartOptions(1e-3, 1.0, quadrature_n=4)
    with pytest.raises(ValueError):
        biot_savart_velocity(circle3(64), 0, BiotSavartOptions(1e-3, 100.0))
    # past an open curve's end the Taylor step extrapolates an arc the curve
    # lacks: without bound for outer 15 on the 14.05-long helix, and by a
    # finite but wrong amount for outer 1 from its first sample
    helix = helix3(n=200)
    with pytest.raises(ValueError, match="passes the nearer end"):
        biot_savart_velocity(helix, 100, BiotSavartOptions(1e-3, 15.0))
    with pytest.raises(ValueError, match="passes the nearer end"):
        biot_savart_velocity(helix, 0, BiotSavartOptions(1e-3, 1.0))
    # an inner cutoff whose cube underflows divides zero by zero, which warns
    with pytest.raises(ValueError, match="not finite"), np.errstate(invalid="ignore"):
        biot_savart_velocity(helix, 100, BiotSavartOptions(1e-320, 1.0))


# ---------------------------------------------------------------------------
# the stage plan: one set of buffers per run, none of them ever handed out


def _plan_buffers(plan) -> list[np.ndarray]:
    return [*plan.k, *(v for v in vars(plan).values() if isinstance(v, np.ndarray))]


def test_velocity_is_looked_up_once_per_step(monkeypatch):
    # the driver calls vfe._velocity through the module global: once at the
    # start and once after each step, so a rebinding counts every call
    calls = []

    def counting(*args):
        calls.append(args)
        return velocity(*args)

    velocity = vfe._velocity
    monkeypatch.setattr(vfe, "_velocity", counting)
    traj = evolve(helix3(n=64), StepOptions(stop_time=1.0, dt=1e-4, max_steps=10))
    assert (traj.stop_reason, traj.steps_taken) == ("max-steps", 10)
    assert len(calls) == 11


def _run(curve, spec=None):
    opts = StepOptions(stop_time=1.0, dt=1e-4, max_steps=12, record_every=5)
    return evolve(curve, opts) if spec is None else flow.evolve(curve, opts, spec)


def test_interleaved_runs_keep_the_bits_of_fresh_buffers():
    # a run on its own plan, next to a run whose every call builds a fresh plan;
    # the open run goes again after the closed one
    ring = SampledCurve(3, True, circle3(48).points + 0.05 * np.sin(
        3.0 * np.arange(48))[:, None] * [0.0, 0.0, 1.0])
    for curve in (helix3(n=64), ring, helix3(n=64)):
        got, want = _run(curve), _run(curve, vfe._spec())
        assert got.times == want.times
        for a, b in zip(got.frames, want.frames, strict=True):
            assert np.array_equal(a.points, b.points)


def test_binormal_velocity_returns_independent_arrays():
    first = binormal_velocity(helix3(n=64))
    kept = first.copy()
    second = binormal_velocity(helix3(0.5, 0.2, n=64))
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, second)


def test_nothing_the_driver_holds_is_a_plan_buffer(monkeypatch):
    # every (h, vel, kappa), every stepped state and every frame stays as it
    # was returned while later steps reuse the plan
    returned, plans = [], []
    velocity, step = vfe._velocity, vfe._step

    def watched_velocity(pts, closed, plan):
        plans.append(plan)
        out = velocity(pts, closed, plan)
        returned.append((out, [a.copy() for a in out]))
        return out

    def watched_step(*args):
        out = step(*args)
        returned.append(((out,), [out.copy()]))
        return out

    monkeypatch.setattr(vfe, "_velocity", watched_velocity)
    monkeypatch.setattr(vfe, "_step", watched_step)
    traj = _run(helix3(n=64))
    buffers = _plan_buffers(plans[0])
    assert all(plan is plans[0] for plan in plans)
    for arrays, copies in returned:
        for a, kept in zip(arrays, copies):
            assert np.array_equal(a, kept)
            assert not any(np.shares_memory(a, b) for b in buffers)
    assert not any(np.shares_memory(f.points, b) for f in traj.frames for b in buffers)
