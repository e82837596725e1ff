from __future__ import annotations

import numpy as np
import pytest

from conftest import circle2, ellipse2
from curveflow import csf
from curveflow.csf import (
    arclength_rate_residual,
    backwards_heat_kernel,
    curvature_evolution_residual,
    distance_ratio,
    distance_ratio_series,
    estimate_shrink_point,
    estimate_singular_time,
    evolve,
    heat_self_similar,
    huisken_functional,
    huisken_series,
    parabolic_rescale,
)
from curveflow.csf_solitons import grim_reaper
from curveflow.errors import CurveFlowError
from curveflow.flow import StepOptions, frame_measures
from curveflow.geometry import (SampledCurve, _lagrange_d1_d2, chord_lengths,
                                resample_arclength)
from curveflow.storage import read_trajectory, write_trajectory

CIRCLE_HUISKEN = np.sqrt(2.0 * np.pi) * np.exp(-0.5)


def test_step_options_validation():
    with pytest.raises(ValueError):
        StepOptions(stop_time=1.0)                    # neither dt nor cfl
    with pytest.raises(ValueError):
        StepOptions(stop_time=1.0, dt=1e-4, cfl=0.2)  # both
    with pytest.raises(ValueError):
        StepOptions(stop_time=-1.0, cfl=0.2)


def test_single_step_shrinks_circle():
    c = circle2(256)
    dt = 1e-5
    out = evolve(c, StepOptions(stop_time=dt, dt=dt)).final
    r = np.linalg.norm(out.points, axis=1)
    # gamma_ss of the sampled circle points inward with |gamma_ss| ~ 1
    assert np.abs(r - (1.0 - dt)).max() < 1e-7


def test_evolve_rejects_unstable_dt():
    c = circle2(64)
    with pytest.raises(CurveFlowError) as err:
        evolve(c, StepOptions(stop_time=0.1, dt=1.0))
    assert err.value.token == "cfl-violation"


def test_evolve_requires_planar_curve():
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    c = SampledCurve(3, True, np.column_stack([np.cos(th), np.sin(th),
                                               np.zeros(64)]))
    with pytest.raises(ValueError):
        evolve(c, StepOptions(stop_time=0.1, cfl=0.25))


def test_first_frame_is_the_input():
    c = ellipse2(2.0, 1.0, 128)
    traj = evolve(c, StepOptions(stop_time=1e-3, cfl=0.25))
    assert np.array_equal(traj.frames[0].points, c.points)


def test_circle_radius_law_short_run():
    traj = evolve(circle2(256), StepOptions(stop_time=0.3, cfl=0.25))
    assert traj.stop_reason == "stop-time"
    for t, fr in zip(traj.times, traj.frames):
        r = np.linalg.norm(fr.points, axis=1).mean()
        assert abs(r - np.sqrt(1.0 - 2.0 * t)) < 1e-4


def test_open_curve_ends_stay_pinned():
    xs = np.linspace(-1.0, 1.0, 128)
    c = SampledCurve(2, False, np.column_stack([xs, xs**2]))
    traj = evolve(c, StepOptions(stop_time=5e-3, cfl=0.25))
    assert np.array_equal(traj.final.points[0], c.points[0])
    assert np.array_equal(traj.final.points[-1], c.points[-1])


def test_open_ends_are_bit_exact_after_many_steps():
    # solving for the end points would round them; the step copies them
    xs = np.linspace(-1.0, 1.0, 64)
    c = SampledCurve(2, False, np.column_stack([xs, np.sin(3.0 * xs)]))
    traj = evolve(c, StepOptions(stop_time=0.05, cfl=0.25, record_every=1))
    assert traj.steps_taken >= 100
    for frame in traj.frames:
        assert np.array_equal(frame.points[[0, -1]], c.points[[0, -1]])


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
def test_implicit_solve_matches_the_dense_stencil_matrix(closed):
    # the dense matrix is the explicit stencil applied to the unit vectors,
    # with the pinned end rows of an open curve zeroed
    rng = np.random.default_rng(5)
    n = 24
    th = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    pts = np.column_stack([(2.0 + np.cos(3.0 * th)) * np.cos(th), np.sin(th)])
    h = chord_lengths(pts, closed)
    d2 = _lagrange_d1_d2(np.eye(n), h, closed)[1]
    if not closed:
        d2[[0, -1]] = 0.0
    a = 1.0 / 3e-3
    rhs = rng.standard_normal((n, 2))
    want = np.linalg.solve(a * np.eye(n) - d2, rhs)
    got = csf._implicit_solve(a, h, rhs, closed)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_fixed_step_is_second_order_on_the_shrinking_circle():
    stop = 0.3
    ref = evolve(circle2(64), StepOptions(stop_time=stop, dt=stop / 1000)).final.points
    err = [np.abs(evolve(circle2(64), StepOptions(stop_time=stop, dt=stop / k)).final.points
                  - ref).max() for k in (20, 40)]
    assert 3.5 < err[0] / err[1] < 4.5


@pytest.mark.parametrize("dt_prev", [1e-4, 1e-3])
def test_step_after_a_step_size_jump_is_backward_euler(dt_prev):
    # BDF2 weights for a ratio above MAX_STEP_RATIO would not be zero-stable,
    # and weights capped at that ratio do not fit the step actually taken
    c = circle2(256)
    step0 = evolve(c, StepOptions(stop_time=dt_prev, dt=dt_prev)).final.points
    h0, h1 = chord_lengths(c.points, True), chord_lengths(step0, True)
    dt = 8e-3

    def step(last):
        return csf._step(step0, h1, None, True, dt, last)

    jumped = step((c.points, h0, dt_prev))
    assert np.array_equal(jumped, step(None))
    # a step at the largest ratio still takes the BDF2 weights
    at_ratio = (c.points, h0, dt / csf.MAX_STEP_RATIO)
    assert not np.array_equal(step(at_ratio), step(None))
    # the unit circle's radius is sqrt(1 - 2t)
    radius = np.linalg.norm(jumped, axis=1)
    assert np.abs(radius - np.sqrt(1.0 - 2.0 * (dt_prev + dt))).max() < 2e-4


@pytest.mark.parametrize("closed", [True, False])
def test_a_step_with_no_history_is_the_backward_euler_solve(closed):
    # BDF2 at w = 0 is backward Euler bit for bit, signed zeros included: the
    # open curve is a straight line whose ordinates are all -0.0
    th = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    if closed:
        pts = np.column_stack([np.cos(th), np.sin(th)])
        pts[0, 1] = pts[8, 0] = -0.0
    else:
        pts = np.column_stack([th, np.full(32, -0.0)])
    h, dt = chord_lengths(pts, closed), 1e-3
    want = csf._implicit_solve(1.0 / dt, h, pts / dt, closed)
    if not closed:
        want[[0, -1]] = pts[[0, -1]]
    got = csf._step(pts, h, None, closed, dt, None)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("cfl", [0.95, 0.99, 1.0])
def test_cfl_up_to_one_reaches_the_stop_time(cfl):
    traj = evolve(ellipse2(2.0, 1.0, 64), StepOptions(stop_time=0.9, cfl=cfl))
    assert traj.stop_reason == "stop-time"
    assert traj.final_time == pytest.approx(0.9, abs=1e-12)


@pytest.mark.parametrize("cfl", [0.25, 1.0])
@pytest.mark.parametrize("n", [8, 16, 32])
def test_coarse_polygon_dies_at_the_circle_time(n, cfl):
    # a regular polygon on the unit circle keeps r^2 = 1 - 2t and dies at
    # t = 1/2 however coarse it is, so the step must follow the curvature
    # all the way in and never take a share of the remaining lifetime
    traj = evolve(circle2(n), StepOptions(stop_time=10.0, cfl=cfl))
    assert traj.stop_reason == "approaching-singularity"
    assert abs(traj.final_time - 0.5) < 1e-3
    r2 = np.array([np.mean(np.sum(f.points**2, axis=1)) for f in traj.frames])
    assert np.abs(r2 - (1.0 - 2.0 * np.array(traj.times))).max() < 2e-3


def test_singularity_guard_and_time_estimate(circle_run):
    traj = circle_run
    assert traj.stop_reason == "approaching-singularity"
    assert estimate_singular_time(traj) == pytest.approx(0.5, abs=5e-3)
    assert np.linalg.norm(estimate_shrink_point(traj)) < 1e-10


def test_max_steps_stop():
    traj = evolve(circle2(64), StepOptions(stop_time=1.0, cfl=0.25,
                                           max_steps=7))
    assert traj.stop_reason == "max-steps"
    assert traj.steps_taken == 7


def test_arclength_rate_on_circle():
    # headroom below the stability bound: the radius shrinks to sqrt(0.8)
    traj = evolve(circle2(512), StepOptions(stop_time=0.1, dt=2e-5,
                                            record_every=50))
    res = arclength_rate_residual(traj)
    bend = frame_measures(traj)["bending"][1:-1]
    assert (res.values / bend).max() < 1e-3


def test_arclength_residual_reads_stored_frames(tmp_path):
    # storage keeps points and times only; the residual measures both
    # terms on the frames, so a stored trajectory gives the same numbers
    traj = evolve(ellipse2(1.5, 1.0, 128),
                  StepOptions(stop_time=0.02, cfl=0.25, record_every=5))
    write_trajectory(tmp_path, traj)
    back = read_trajectory(tmp_path)
    in_memory = arclength_rate_residual(traj)
    stored = arclength_rate_residual(back)
    assert np.array_equal(stored.times, in_memory.times)
    assert np.array_equal(stored.values, in_memory.values)
    measured, measured_back = frame_measures(traj), frame_measures(back)
    assert measured.keys() == measured_back.keys()
    for key in measured:
        assert np.array_equal(measured_back[key], measured[key], equal_nan=True)


def test_curvature_law_on_circle():
    # kappa_t = kappa^3 exactly; spatial terms vanish
    traj = evolve(circle2(512), StepOptions(stop_time=0.1, dt=2e-5,
                                            record_every=50))
    res = curvature_evolution_residual(traj)
    assert res.values.max() < 1e-3


def test_curvature_law_on_grim_reaper():
    # the first recorded interval of a pinned-end run contains the
    # boundary-layer formation transient (curvature at the clamped ends
    # collapses to zero), so the law is measured from the second
    # interior frame on
    xs = np.linspace(-1.3, 1.3, 512)
    start = resample_arclength(grim_reaper(0.0, xs), 512)
    traj = evolve(start, StepOptions(stop_time=4e-3, dt=2e-6,
                                     record_every=200))
    res = curvature_evolution_residual(traj)
    assert res.values[1:].max() < 5e-3
    assert res.values[1] > res.values[3]        # transient still decaying


def test_curvature_law_refines_on_ellipse():
    # halve the grid spacing and the differencing span together; measure
    # past the start (the scheme needs a few steps to settle into its own
    # quasi-steady curvature bias, and that settling rate does not refine)
    runs = []
    for n, dt, rec in ((128, 2e-4, 50), (256, 5e-5, 100)):
        start = resample_arclength(ellipse2(2.0, 1.0, n), n)
        traj = evolve(start, StepOptions(stop_time=0.06, dt=dt,
                                         record_every=rec))
        vals = curvature_evolution_residual(traj).values
        runs.append(vals[len(vals) // 2:].max())
    assert runs[1] < 0.35 * runs[0]


def test_backwards_heat_kernel_formula():
    x = np.array([[0.3, -0.2], [1.0, 0.5]])
    rho = backwards_heat_kernel(x, 0.1, np.zeros(2), 0.5)
    gap = 0.4
    expect = (4 * np.pi * gap) ** -0.5 * np.exp(
        -np.sum(x**2, axis=1) / (4 * gap))
    assert np.allclose(rho, expect, rtol=1e-12)
    with pytest.raises(CurveFlowError) as err:
        backwards_heat_kernel(x, 0.5, np.zeros(2), 0.5)
    assert err.value.token == "future-kernel"


def test_huisken_constant_on_exact_shrinking_circles():
    for t in (0.0, 0.2, 0.4):
        c = circle2(1024, radius=np.sqrt(1.0 - 2.0 * t))
        val = huisken_functional(c, t, np.zeros(2), 0.5)
        assert val == pytest.approx(CIRCLE_HUISKEN, abs=1e-4)


def test_huisken_series_monotone(deep_ellipse_run):
    traj = deep_ellipse_run
    x0 = estimate_shrink_point(traj)
    t0 = estimate_singular_time(traj)
    series = huisken_series(traj, x0, t0)
    diffs = np.diff(series.values)
    assert (diffs <= 1e-6 * series.values[:-1]).all()


def test_huisken_series_rejects_non_finite_centre():
    traj = evolve(circle2(64), StepOptions(stop_time=0.01, cfl=0.25))
    for x0, t0 in (([np.nan, 0.0], 0.5), ([0.0, np.inf], 0.5), ([0.0, 0.0], np.nan)):
        with pytest.raises(ValueError):
            huisken_series(traj, np.array(x0), t0)


def test_distance_ratio_on_circles():
    for r in (0.5, 1.0, 3.0):
        assert distance_ratio(circle2(2048, radius=r)) == pytest.approx(
            1.0, abs=1e-5)


def test_distance_ratio_series_monotone(deep_ellipse_run):
    series = distance_ratio_series(deep_ellipse_run)
    assert series.values[0] > 1.05           # a 2:1 ellipse is not round
    assert (np.diff(series.values) <= 1e-4).all()


def test_parabolic_rescale_windows(deep_ellipse_run):
    traj = deep_ellipse_run
    x0 = estimate_shrink_point(traj)
    t0 = estimate_singular_time(traj)
    big, = parabolic_rescale(traj, x0, t0, [1e6])   # window entirely missed
    assert big.skipped and big.trajectory is None
    huge, = parabolic_rescale(traj, x0, t0, [1e300])   # lam^2 overflows to inf
    assert huge.skipped
    for lam in (0.0, -4.0):
        with pytest.raises(ValueError):
            parabolic_rescale(traj, x0, t0, [lam])
    ok, = parabolic_rescale(traj, x0, t0, [4.0])
    assert not ok.skipped
    taus = np.array(ok.trajectory.times)
    assert taus.min() >= -4.0 and taus.max() < 0.0
    assert ok.iso_at_half < 1.05
    assert not ok.drift_flagged


def test_heat_profile_solves_the_heat_equation():
    # second-order residual check at interior points
    k = 0.7
    xs = np.linspace(-3.0, 3.0, 2001)
    dx = xs[1] - xs[0]
    t, dt = 0.9, 1e-6
    u0 = heat_self_similar(xs, t - dt, k)
    u1 = heat_self_similar(xs, t, k)
    u2 = heat_self_similar(xs, t + dt, k)
    ut = (u2 - u0) / (2 * dt)
    uxx = (u1[2:] - 2 * u1[1:-1] + u1[:-2]) / dx**2
    assert np.abs(ut[1:-1] - k * uxx).max() < 1e-6
    with pytest.raises(ValueError):
        heat_self_similar(xs, -1.0)
