from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import circle2, circle3, helix3
from curveflow.errors import CurveFlowError
from curveflow.geometry import SampledCurve, frenet, hausdorff_distance
from curveflow.hasimoto import (
    FilamentFunction,
    FrameState,
    HasimotoSolitonSpec,
    dilating_filament,
    hasimoto_soliton,
    hasimoto_soliton_filament,
    hasimoto_transform,
    nlcse_evolve,
    nlcse_residual,
    nlcse_step,
    reconstruct_frame,
    standard_seed,
)


def test_filament_validation():
    with pytest.raises(ValueError):
        FilamentFunction(0.0, -0.1, np.ones(8, dtype=complex))
    with pytest.raises(ValueError):
        FilamentFunction(0.0, 0.1, np.array([1.0, np.nan, 1.0, 1.0]))
    assert FilamentFunction(-1.0, 0.5, np.ones(4, dtype=complex)).n == 4


@pytest.mark.parametrize("field", ["grid_start", "grid_step", "gauge_A", "time"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_filament_rejects_non_finite_scalars(field, bad):
    kwargs = {"grid_start": 0.0, "grid_step": 0.1, "gauge_A": 0.0, "time": 0.0}
    kwargs[field] = bad
    with pytest.raises(ValueError, match="finite"):
        FilamentFunction(values=np.ones(8, dtype=complex), **kwargs)


def test_evolve_rejects_negative_step_count():
    psi = FilamentFunction(0.0, 0.1, np.ones(8, dtype=complex), periodic=True)
    with pytest.raises(ValueError):
        nlcse_evolve(psi, 1e-3, -1)
    assert nlcse_evolve(psi, 1e-3, 0) is psi


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
def test_evolve_rejects_a_step_that_is_not_positive_and_finite(dt):
    psi = FilamentFunction(0.0, 0.1, np.ones(8, dtype=complex), periodic=True)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        nlcse_evolve(psi, dt, 3)


def test_transform_of_planar_circle_is_signed_curvature():
    fil = hasimoto_transform(frenet(circle2(512, radius=2.0)))
    assert np.abs(fil.values.imag).max() == 0.0
    assert np.abs(fil.values.real - 0.5).max() < 1e-4


def test_transform_of_space_circle():
    fil = hasimoto_transform(frenet(circle3(512)))
    assert np.abs(np.abs(fil.values) - 1.0).max() < 1e-4
    # zero torsion: the phase stays put
    assert np.abs(np.angle(fil.values)).max() < 1e-6


def test_transform_rejects_nonuniform_grids():
    u = np.linspace(0, 1, 256) ** 1.5
    pts = np.column_stack([u, np.zeros(256), 0.1 * u**2])
    with pytest.raises(ValueError):
        hasimoto_transform(frenet(SampledCurve(3, False, pts)))


def test_transform_rejects_degenerate_torsion():
    pts = np.column_stack([np.linspace(0, 1, 64), np.zeros(64), np.zeros(64)])
    with pytest.raises(CurveFlowError) as err:
        hasimoto_transform(frenet(SampledCurve(3, False, pts)))
    assert err.value.token == "frenet-degenerate"


def test_plane_wave_phase_rotation():
    a = 0.8
    n = 128
    psi = FilamentFunction(0.0, 0.1, np.full(n, a, dtype=complex),
                           periodic=True)
    out = nlcse_evolve(psi, 1e-3, 400)
    expect = a * np.exp(0.5j * a**2 * out.time)
    assert np.abs(out.values - expect).max() < 1e-10


def test_gauge_freezes_the_plane_wave():
    a = 0.8
    psi = FilamentFunction(0.0, 0.1, np.full(128, a, dtype=complex),
                           gauge_A=-a**2, periodic=True)
    out = nlcse_evolve(psi, 1e-3, 400)
    assert np.abs(out.values - a).max() < 1e-10


def test_gauge_covariance():
    s = np.linspace(-20.0, 20.0, 512, endpoint=False)
    base = 0.7 / np.cosh(0.5 * s) * np.exp(0.3j * s)
    A = 1.3
    p0 = FilamentFunction(s[0], s[1] - s[0], base, gauge_A=0.0, periodic=True)
    pA = FilamentFunction(s[0], s[1] - s[0], base, gauge_A=A, periodic=True)
    o0 = nlcse_evolve(p0, 1e-3, 250)
    oA = nlcse_evolve(pA, 1e-3, 250)
    assert np.abs(oA.values - o0.values * np.exp(0.5j * A * oA.time)).max() < 1e-9


def test_mass_is_conserved():
    s = np.linspace(-30.0, 30.0, 1024, endpoint=False)
    spec = HasimotoSolitonSpec(nu=1.0, tau0=0.4)
    psi = hasimoto_soliton_filament(spec, 0.0, s)
    psi = FilamentFunction(psi.grid_start, psi.grid_step, psi.values,
                           psi.gauge_A, psi.time, periodic=True)
    m0 = np.sum(np.abs(psi.values) ** 2) * psi.grid_step
    out = nlcse_evolve(psi, 1e-3, 500)
    m1 = np.sum(np.abs(out.values) ** 2) * out.grid_step
    assert m1 == pytest.approx(m0, rel=1e-12)


def test_clamped_mode_warns_on_coarse_dt():
    psi = FilamentFunction(0.0, 0.05, np.ones(64, dtype=complex))
    with pytest.warns(RuntimeWarning, match="accuracy-degraded"):
        nlcse_step(psi, 1.0)


def test_clamped_evolve_warns_once_per_call_on_coarse_dt():
    psi = FilamentFunction(0.0, 0.05, np.ones(64, dtype=complex))
    with pytest.warns(RuntimeWarning, match="accuracy-degraded") as record:
        nlcse_evolve(psi, 1.0, 5)
    assert len(record) == 1


@pytest.mark.parametrize("periodic", [False, True], ids=["clamped", "periodic"])
def test_evolve_rejects_a_result_that_turns_non_finite(periodic):
    # |psi|^2 overflows in the first nonlinear half step
    psi = FilamentFunction(0.0, 0.1, np.full(16, 1e200, dtype=complex), periodic=periodic)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
        nlcse_evolve(psi, 1e-3, 4)


def test_soliton_filament_is_an_nlcse_solution():
    spec = HasimotoSolitonSpec(nu=1.0, tau0=0.4)
    s = np.linspace(-15.0, 15.0, 1024)
    ds = s[1] - s[0]
    delta = 1e-2 * ds
    snaps = [hasimoto_soliton_filament(spec, t, s)
             for t in (1.0 - delta, 1.0, 1.0 + delta)]
    res = nlcse_residual(*snaps)
    assert np.isnan(res[:2]).all() and np.isnan(res[-2:]).all()
    assert np.nanmax(res) < 1e-3


def test_residual_needs_matching_grids():
    a = FilamentFunction(0.0, 0.1, np.ones(64, dtype=complex))
    b = FilamentFunction(0.0, 0.1, np.ones(65, dtype=complex))
    with pytest.raises(ValueError):
        nlcse_residual(a, b, a)


def test_residual_needs_a_sample_inside_the_stencil():
    # the 5-point stencil leaves no sample of a 4-point grid, whose residual
    # would be all NaN; 5 points hold one
    snaps = [dilating_filament(1.0, t, np.linspace(-1.0, 1.0, 4)) for t in (0.9, 1.0, 1.1)]
    with pytest.raises(ValueError, match="at least 5 samples"):
        nlcse_residual(*snaps)
    snaps = [dilating_filament(1.0, t, np.linspace(-1.0, 1.0, 5)) for t in (0.9, 1.0, 1.1)]
    res = nlcse_residual(*snaps)
    assert np.isnan(res[[0, 1, 3, 4]]).all() and np.isfinite(res[2])


def test_residual_needs_snapshots_at_increasing_times():
    # 1e154 +- 1e-4 rounds to 1e154, so the time difference would be 0/0
    x = np.linspace(0.0, 1.0, 8)
    snaps = [dilating_filament(1.0, t, x) for t in (1e154 - 1e-4, 1e154, 1e154 + 1e-4)]
    with pytest.raises(ValueError, match="strictly increase"):
        nlcse_residual(*snaps)


@pytest.mark.parametrize("value, step, match", [(0.0, 2.5e-161, "grid_step must lie"),
                                                (1e154, 0.1, "overflows")],
                         ids=["subnormal-step-squared", "cubic-term"])
def test_residual_refuses_to_overflow(value, step, match):
    # a step whose square is subnormal, which numpy would divide by through its
    # infinite reciprocal, is refused with the filament; |psi|^2 psi passes the
    # largest double
    with pytest.raises(ValueError, match=match):
        snap = FilamentFunction(0.0, step, np.full(8, value, dtype=complex))
        nlcse_residual(*[dataclasses.replace(snap, time=t) for t in (0.9, 1.0, 1.1)])


def test_reconstruct_straight_line_from_zero():
    psi = FilamentFunction(0.0, 0.05, np.zeros(200, dtype=complex))
    curve, frames = reconstruct_frame(psi)
    assert np.abs(curve.points[:, 1:]).max() < 1e-14
    assert np.allclose(curve.points[-1], [199 * 0.05, 0.0, 0.0])
    assert np.allclose(frames.T[-1], [1.0, 0.0, 0.0])


def test_reconstruct_circle_from_constant():
    R = 2.0
    n = 2048
    ds = 2 * np.pi * R / n
    psi = FilamentFunction(0.0, ds, np.full(n, 1.0 / R, dtype=complex))
    curve, _ = reconstruct_frame(psi)
    # seed normal (0,1,0): the center sits at seed + R * N
    center = np.array([0.0, R, 0.0])
    radii = np.linalg.norm(curve.points - center, axis=1)
    assert np.abs(radii - R).max() < 1e-5
    s = ds * np.arange(n)
    exact = np.stack([R * np.sin(s / R), R * (1 - np.cos(s / R)), np.zeros(n)], axis=1)
    assert np.abs(curve.points - exact).max() < 1e-5
    # the grid spans (n - 1) * ds, so the last sample is one step shy of closing
    gap = np.linalg.norm(curve.points[-1] - curve.points[0])
    assert abs(gap - ds) < 1e-5


def test_reconstruct_rejects_bad_seed():
    psi = FilamentFunction(0.0, 0.05, np.zeros(16, dtype=complex))
    seed = FrameState(T=np.array([1.0, 0.0, 0.0]),
                      N_complex=np.array([0.0, 1.0, 0.2 + 1j]))
    with pytest.raises(CurveFlowError) as err:
        reconstruct_frame(psi, seed)
    assert err.value.token == "bad-seed-frame"


def test_helix_round_trip():
    # measured curvature and torsion carry an O(h^2) bias that the frame
    # integration accumulates; 512 samples leave the error just above 1e-3
    hx = helix3(1.0, 0.5, 2.0, 1024)
    fr = frenet(hx)
    fil = hasimoto_transform(fr)
    seed = FrameState(T=fr.tangent[0],
                      N_complex=fr.normal[0] + 1j * fr.binormal[0],
                      position=hx.points[0])
    rebuilt, _ = reconstruct_frame(fil, seed)
    assert hausdorff_distance(rebuilt, hx) < 1e-3


def test_kink_frames_match_the_closed_form():
    # psi carries the phase tau0 * s, so the transported pair N + iB is the
    # Frenet pair turned by exp(i tau0 s); the bounds are twice the measured
    # errors of the Magnus frames, 3.5e-6, 3.7e-6 and 1.0e-3
    spec = HasimotoSolitonSpec(nu=1.0, tau0=0.5)
    s = np.linspace(-10.0, 10.0, 256)
    curve, fr = hasimoto_soliton(spec, 0.0, s)
    exact = (fr.normal + 1j * fr.binormal) * np.exp(1j * spec.tau0 * s)[:, None]
    seed = FrameState(T=fr.tangent[0], N_complex=exact[0], position=curve.points[0])
    rebuilt, frames = reconstruct_frame(hasimoto_soliton_filament(spec, 0.0, s), seed)
    tangents, normals = frames.T, frames.N_complex
    rows = np.stack([tangents, normals.real, normals.imag], axis=1)
    assert np.abs(rows @ rows.transpose(0, 2, 1) - np.eye(3)).max() < 1e-12
    assert np.abs(tangents - fr.tangent).max() < 7.5e-6
    assert np.abs(normals - exact).max() < 7.5e-6
    assert np.abs(rebuilt.points - curve.points).max() < 2.1e-3


def test_kink_positions_are_fourth_order():
    # the corrected trapezoid rule reads 7.8e-8 here, and the plain one 6.4e-5
    spec = HasimotoSolitonSpec(nu=1.0, tau0=0.5)
    s = np.linspace(-10.0, 10.0, 1024)
    curve, fr = hasimoto_soliton(spec, 0.0, s)
    exact = (fr.normal + 1j * fr.binormal) * np.exp(1j * spec.tau0 * s)[:, None]
    seed = FrameState(T=fr.tangent[0], N_complex=exact[0], position=curve.points[0])
    rebuilt, _ = reconstruct_frame(hasimoto_soliton_filament(spec, 0.0, s), seed)
    assert np.abs(rebuilt.points - curve.points).max() < 1e-6


def test_soliton_closed_form_invariants():
    spec = HasimotoSolitonSpec(nu=1.2, tau0=0.5)
    s = np.linspace(-12.0, 12.0, 1025)     # includes s = 0
    curve, fr = hasimoto_soliton(spec, 0.7, s)
    assert np.abs(np.linalg.norm(fr.tangent, axis=1) - 1.0).max() < 1e-12
    assert np.abs(np.cross(fr.tangent, fr.normal) - fr.binormal).max() < 1e-12
    eta = spec.nu * (s - 2.0 * spec.tau0 * 0.7)
    assert np.allclose(fr.curvature, 2 * spec.nu / np.cosh(eta), atol=1e-12)
    assert np.all(fr.torsion == spec.tau0)
    assert spec.speed == 2 * spec.tau0
    assert spec.gauge_A == 2 * (spec.tau0**2 - spec.nu**2)
    with pytest.raises(ValueError):
        HasimotoSolitonSpec(nu=-1.0, tau0=0.0)


@pytest.mark.parametrize("tau0", [-1.0, 1e150], ids=["unit-tau0", "huge-tau0"])
def test_soliton_frame_stays_orthonormal_at_a_tiny_nu(tau0):
    # the skew tau0/nu squares past the largest double; the frame reads only
    # mu = nu^2/(nu^2 + tau0^2) and mu tau0/nu, which stay bounded
    curve, fr = hasimoto_soliton(HasimotoSolitonSpec(1e-160, tau0), 0.0, np.linspace(0.0, 1.0, 16))
    rows = np.stack([fr.tangent, fr.normal, fr.binormal], axis=1)
    assert np.isfinite(curve.points).all() and np.isfinite(rows).all()
    assert np.abs(rows @ rows.transpose(0, 2, 1) - np.eye(3)).max() < 1e-15
    assert np.abs(np.cross(fr.tangent, fr.normal) - fr.binormal).max() < 1e-15


def test_soliton_curve_matches_its_own_frenet_data():
    spec = HasimotoSolitonSpec(nu=1.0, tau0=0.4)
    s = np.linspace(-10.0, 10.0, 1024)
    curve, fr = hasimoto_soliton(spec, 0.0, s)
    measured = frenet(curve)
    sl = slice(16, -16)
    assert np.abs(measured.curvature[sl] - fr.curvature[sl]).max() < 1e-3
    defined = measured.torsion_defined[sl]
    assert np.abs(measured.torsion[sl][defined]
                  - spec.tau0).max() < 1e-2


def test_dilating_filament():
    x = np.linspace(-10.0, 10.0, 512)
    fil = dilating_filament(0.8, 4.0, x)
    assert np.abs(np.abs(fil.values) - 0.4).max() < 1e-12
    assert fil.gauge_A == pytest.approx(-0.16)
    with pytest.raises(CurveFlowError) as err:
        dilating_filament(0.8, 0.0, x)
    assert err.value.token == "at-singularity"


@pytest.mark.parametrize("grid", [[0.0], [0.0, 1.0, 2.0]], ids=["one-sample", "three-samples"])
def test_filament_generators_reject_short_grids(grid):
    with pytest.raises(ValueError, match="at least 4 samples"):
        hasimoto_soliton_filament(HasimotoSolitonSpec(1.0, 0.5), 0.0, grid)
    with pytest.raises(ValueError, match="at least 4 samples"):
        dilating_filament(1.0, 1.0, grid)


@pytest.mark.parametrize("grid", [[0.0, 1.0, 3.0, 7.0], [3.0, 2.0, 1.0, 0.0],
                                  [0.0, 0.0, 0.0, 0.0], [0.0, 1.0, np.nan, 3.0]],
                         ids=["widening", "decreasing", "constant", "nan"])
def test_filament_generators_reject_a_grid_that_is_not_uniform(grid):
    with pytest.raises(ValueError, match="equal steps"):
        hasimoto_soliton_filament(HasimotoSolitonSpec(1.0, 0.5), 0.0, grid)
    with pytest.raises(ValueError, match="equal steps"):
        dilating_filament(1.0, 1.0, grid)


def test_filament_generators_take_a_linspace_grid_far_from_zero():
    # its steps differ by rounding at |x| ~ 1e6, about 1e-8 of a step
    grid = np.linspace(1e6, 1e6 + 1.0, 100)
    assert dilating_filament(1.0, 1.0, grid).grid_step == grid[1] - grid[0]


@pytest.mark.parametrize("nu, tau0", [(1e-308, 0.0), (0.25, 1e308), (np.nan, 0.0),
                                      (np.inf, 0.0), (1.0, np.nan), (1.0, -np.inf),
                                      (0.0, 1.0), (-1.0, 0.0)])
def test_soliton_spec_rejects_numbers_it_cannot_use(nu, tau0):
    with pytest.raises(ValueError, match="nu must be positive"):
        HasimotoSolitonSpec(nu, tau0)


def test_standard_seed_is_orthonormal():
    seed = standard_seed()
    nc = seed.N_complex
    assert abs(np.dot(seed.T, seed.T) - 1.0) < 1e-15
    assert abs(np.dot(nc, nc)) < 1e-15                 # isotropy
    assert abs(np.dot(nc, nc.conj()) - 2.0) < 1e-15    # normalization
