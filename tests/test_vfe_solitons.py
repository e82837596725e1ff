from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.spatial.transform import Rotation

from conftest import circle3
from curveflow import vfe
from curveflow.errors import CurveFlowError
from curveflow.flow import StepOptions
from curveflow.geometry import hausdorff_distance, resample_arclength
from curveflow.vfe_solitons import (
    TRANSVERSE_OMEGA,
    VfeRotatingSpec,
    _band_profile,
    apply_rotation,
    planar_rotation_profile,
    rotation_residual,
    slope_radicand,
    transverse_rotation_profile,
    xaxis_rotation_law,
    xaxis_rotation_profile,
    z_bounds,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        VfeRotatingSpec("spiral", 0.5)
    # the transverse family has its own generator and rotation law
    with pytest.raises(ValueError):
        VfeRotatingSpec("transverse-axis", 0.3, z0=0.5)
    with pytest.raises(ValueError):
        VfeRotatingSpec("x-axis", 0.5, sign=2)
    with pytest.raises(ValueError):
        VfeRotatingSpec("x-axis", 0.5, x_range=(1.0, 1.0))
    with pytest.raises(ValueError):
        VfeRotatingSpec("x-axis", 0.5, n=8)
    with pytest.raises(ValueError):
        VfeRotatingSpec("x-axis", 0.5, n=20.5)
    # the planar layout (x, z, 0) holds only the lambda = 0 profile
    with pytest.raises(ValueError):
        VfeRotatingSpec("planar", 0.5, lam=2.0)


def test_z_bounds_and_radicand_edges():
    lo, hi = z_bounds(0.0, 0.3)
    assert lo == 0.0
    assert hi == pytest.approx(1.4, abs=1e-14)
    # strongly negative C1 opens a band away from z = 0
    lo, hi = z_bounds(1.0, -2.0)
    assert lo == pytest.approx(3.0, abs=1e-14)
    assert hi == pytest.approx(5.0, abs=1e-14)
    # the slope vanishes exactly on both band edges
    assert slope_radicand(np.sqrt(hi), 1.0, -2.0) == pytest.approx(0.0, abs=1e-13)
    assert slope_radicand(np.sqrt(lo), 1.0, -2.0) == pytest.approx(0.0, abs=1e-13)


def test_empty_band_is_rejected():
    with pytest.raises(CurveFlowError) as err:
        z_bounds(0.0, 1.0)
    assert err.value.token == "no-admissible-band"
    with pytest.raises(CurveFlowError):
        z_bounds(2.0, 0.5)     # C1 >= 1/(1+lam^2)


@pytest.mark.parametrize("lam", [0.0, 1.0, 2.0])
def test_band_profile_energy_invariant(lam):
    # the closed form satisfies zp^2 = R(z) identically, so the defect
    # measures only rounding
    C1 = 0.5 / (1.0 + lam**2)
    z0 = 0.5 * np.sqrt(z_bounds(lam, C1)[1])
    x, z, zp, truncated = _band_profile(lam, C1, z0, 1, (0.0, 4.0), 2048)
    assert not truncated
    defect = np.abs(zp**2 - slope_radicand(z, lam, C1)).max()
    assert defect < 1e-12


def test_xaxis_assembly_and_law():
    spec = VfeRotatingSpec("x-axis", C1=0.25, lam=1.0, sign=1,
                           z0=0.5 * np.sqrt(0.5), x_range=(0.0, 4.0), n=512)
    curve = xaxis_rotation_profile(spec)
    assert curve.n == 512
    assert not curve.closed
    x, y, z = curve.points.T
    np.testing.assert_allclose(y, spec.lam * z, atol=1e-15)
    assert x[0] == 0.0 and x[-1] == pytest.approx(4.0)
    np.testing.assert_array_equal(xaxis_rotation_law(spec), [-1.0, 0.0, 0.0])


def test_band_start_outside_band_is_rejected():
    spec = VfeRotatingSpec("x-axis", C1=0.25, lam=1.0, z0=10.0)
    with pytest.raises(CurveFlowError) as err:
        xaxis_rotation_profile(spec)
    assert err.value.token == "outside-admissible-band"
    # z0^2 + 2*C1 = 0 puts the start on the vertical-tangent locus
    spec = VfeRotatingSpec("x-axis", C1=-0.125, lam=1.0, z0=0.5)
    with pytest.raises(CurveFlowError) as err:
        xaxis_rotation_profile(spec)
    assert err.value.token == "outside-admissible-band"


def test_profile_vertical_before_the_second_sample_is_rejected():
    # z0^2 + 2*C1 = 0.0084 > 0, but with sign -1 z^2 falls to -2*C1 and the
    # profile turns vertical at x = 1.13e-5, before the second sample 4/63
    spec = VfeRotatingSpec("x-axis", C1=-0.3, lam=0.0, sign=-1, z0=0.78,
                           x_range=(0.0, 4.0), n=64)
    with pytest.raises(CurveFlowError) as err:
        xaxis_rotation_profile(spec)
    assert err.value.token == "outside-admissible-band"


def test_profile_reaching_a_vertical_tangent_is_truncated():
    # the profile ends exactly where z^2 + 2*C1 = 0; the reference x is
    # 2E(phi_t|m) - F(phi_t|m) taken from phi0, at 30 digits (mpmath)
    x, z, _, truncated = _band_profile(0.0, -0.2, 0.8, 1, (0.0, 5.0), 256)
    assert truncated
    assert x[-1] == pytest.approx(1.455907436784327, abs=1e-12)
    assert z[-1] ** 2 == pytest.approx(0.4, abs=1e-15)


def test_rotation_residual_is_small_on_every_family():
    spec = VfeRotatingSpec("x-axis", C1=0.25, lam=1.0, sign=1,
                           z0=0.5 * np.sqrt(0.5), x_range=(0.0, 4.0), n=2048)
    curve = xaxis_rotation_profile(spec)
    assert rotation_residual(curve, xaxis_rotation_law(spec)).max() < 1e-4

    planar, omega = planar_rotation_profile(0.5, 0.5, (0.0, 4.0), 2048)
    np.testing.assert_array_equal(omega, [-1.0, 0.0, 0.0])
    assert rotation_residual(planar, omega).max() < 1e-4

    trans = transverse_rotation_profile(0.3, 0.1, (-1.1, 1.1), 2048)
    assert rotation_residual(trans, TRANSVERSE_OMEGA).max() < 1e-4


def test_planar_equals_xaxis_at_lambda_zero():
    spec = VfeRotatingSpec("x-axis", C1=0.5, lam=0.0, sign=1, z0=0.5,
                           x_range=(0.0, 4.0), n=1024)
    xa = xaxis_rotation_profile(spec)
    planar, omega = planar_rotation_profile(0.5, 0.5, (0.0, 4.0), 1024)
    # same scalar profile, laid out in the xz- vs the xy-plane
    assert np.abs(xa.points[:, 2] - planar.points[:, 1]).max() < 1e-8
    np.testing.assert_array_equal(omega, xaxis_rotation_law(spec))


def test_planar_profile_goes_through_the_spec():
    spec = VfeRotatingSpec("planar", C1=0.5, lam=0.0, sign=1, z0=0.5,
                           x_range=(0.0, 4.0), n=256)
    curve = xaxis_rotation_profile(spec)
    planar, omega = planar_rotation_profile(0.5, 0.5, (0.0, 4.0), 256)
    assert curve.points.tobytes() == planar.points.tobytes()
    assert curve.label == planar.label == "planar rotating profile"
    assert xaxis_rotation_law(spec).tobytes() == omega.tobytes()
    # the planar family takes the x-axis family's sample-count check
    with pytest.raises(ValueError):
        planar_rotation_profile(0.5, 0.5, (0.0, 4.0), 8)


def test_transverse_slope_relation_and_quadrature():
    C1, C2 = 0.3, 0.1
    curve = transverse_rotation_profile(C1, C2, (-1.1, 1.1), 2048)
    x = curve.points[:, 0]
    p = 1.0 + C1**2
    q = 0.5 * p * (x**2 + 2.0 * C2)
    zp = -q * np.sqrt(p / (1.0 - q**2))
    # the closed-form slope satisfies the defining relation identically
    assert np.abs(-zp / np.sqrt(1.0 + C1**2 + zp**2) - q).max() < 1e-12
    np.testing.assert_allclose(curve.points[:, 2], C1 * x, atol=1e-15)

    def slope(xx):
        qq = 0.5 * p * (xx**2 + 2.0 * C2)
        return -qq * np.sqrt(p / (1.0 - qq**2))

    for k in (512, 1024, 2047):
        ref, _ = quad(slope, x[0], x[k], limit=200)
        assert curve.points[k, 1] == pytest.approx(ref, abs=1e-10)


def test_transverse_truncates_where_the_slope_blows_up():
    # q reaches 1 at x = sqrt(2/1.09 - 0.2) inside the requested range
    curve = transverse_rotation_profile(0.3, 0.1, (-1.1, 3.0), 512)
    x_end = curve.points[-1, 0]
    x_star = np.sqrt(2.0 / 1.09 - 0.2)
    assert x_end == pytest.approx(x_star, abs=1e-6)
    assert x_end < 3.0
    with pytest.raises(CurveFlowError) as err:
        transverse_rotation_profile(0.3, 0.1, (2.0, 3.0), 512)
    assert err.value.token == "unsolvable-slope"


@pytest.mark.parametrize("C1", [0.3, 0.0])
def test_transverse_left_branch_ends_at_the_inner_root(C1):
    # with C2 = -1 the band |q| < 1 - 1e-9 is lo2 < x^2 < hi2 with lo2 > 0,
    # so a profile started left of it ends at -sqrt(lo2); at C1 = 0 that gap
    # is 9e-5 wide, narrower than a 4,096-sample probe's spacing
    p, m = 1.0 + C1**2, 1.0 - 1e-9
    curve = transverse_rotation_profile(C1, -1.0, (-1.5, 1.5), 128)
    assert curve.points[-1, 0] == pytest.approx(-np.sqrt(2.0 - 2.0 * m / p), abs=1e-12)
    assert np.isfinite(curve.points).all()


def test_circle_is_not_a_rotating_solution():
    # e_z x Gamma is tangential while kappa*B points along e_z, so the
    # residual sits at sqrt(2) no matter the resolution
    residual = rotation_residual(circle3(256), np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(residual, np.sqrt(2.0), atol=2e-4)


def test_rotation_residual_needs_space_curve():
    from conftest import circle2
    with pytest.raises(ValueError):
        rotation_residual(circle2(64), np.array([0.0, 0.0, 1.0]))


def test_apply_rotation_matches_scipy():
    rng = np.random.default_rng(7)
    curve = circle3(64)
    for _ in range(5):
        omega = rng.normal(size=3)
        t = rng.uniform(0.1, 2.0)
        expected = Rotation.from_rotvec(omega * t).apply(np.array(curve.points))
        got = apply_rotation(curve, omega, t)
        np.testing.assert_allclose(got.points, expected, atol=1e-12)
    # a quarter turn about +z takes (x, y, z) to (-y, x, z)
    quarter = apply_rotation(curve, [0.0, 0.0, 2.0], np.pi / 4)
    p = curve.points
    np.testing.assert_allclose(quarter.points,
                               np.column_stack([-p[:, 1], p[:, 0], p[:, 2]]), atol=1e-15)
    same = apply_rotation(curve, np.zeros(3), 1.0)
    assert same is curve


@pytest.mark.parametrize("case", ["x-axis", "planar", "transverse"])
def test_profiles_rotate_rigidly_under_the_flow(case):
    if case == "x-axis":
        spec = VfeRotatingSpec("x-axis", C1=0.25, lam=1.0, sign=1,
                               z0=0.5 * np.sqrt(0.5), x_range=(0.0, 4.0), n=256)
        curve, omega = xaxis_rotation_profile(spec), xaxis_rotation_law(spec)
    elif case == "planar":
        curve, omega = planar_rotation_profile(0.5, 0.5, (0.0, 4.0), 256)
    else:
        curve, omega = transverse_rotation_profile(0.3, 0.1, (-1.1, 1.1), 256), TRANSVERSE_OMEGA
    # resample first so the trimmed windows of both sides cover the same arc
    cur = resample_arclength(curve, curve.n)
    traj = vfe.evolve(cur, StepOptions(stop_time=1e-3, cfl=0.1, record_every=10**9))
    exact = apply_rotation(cur, omega, 1e-3)
    k = cur.n // 10
    gap = hausdorff_distance(traj.final.points[k:-k], exact.points[k:-k])
    assert gap < 1e-4


def _reference_band(p: float, C1: float, z0: float, x: np.ndarray,
                    sign: int = 1) -> np.ndarray:
    w0 = z0**2 + 2.0 * C1
    zp0 = sign * np.sqrt((4.0 - p**2 * w0**2) / (p**3 * w0**2))
    rhs = lambda _x, u: (u[1], -8.0 * u[0] / (p**3 * (u[0] ** 2 + 2.0 * C1) ** 3))
    sol = solve_ivp(rhs, (x[0], x[-1]), [z0, zp0], method="DOP853",
                    rtol=1e-13, atol=1e-13, dense_output=True)
    return sol.sol(x)[0]


# each bound is the error of the RK45 solver at rtol = 1e-10, atol = 1e-12
# that _band_profile used before DOP853 and the closed form, rounded up: a
# faster method may not be a less accurate one
def test_xaxis_band_accuracy_against_a_tight_reference():
    lam, C1 = 1.0, 0.25
    z0 = 0.5 * np.sqrt(z_bounds(lam, C1)[1])
    spec = VfeRotatingSpec("x-axis", C1, lam=lam, z0=z0, x_range=(0.0, 4.0), n=256)
    x, _, z = xaxis_rotation_profile(spec).points.T
    assert np.abs(z - _reference_band(1.0 + lam**2, C1, z0, x)).max() < 6.0e-11


def test_planar_band_accuracy_against_a_tight_reference():
    curve, _ = planar_rotation_profile(0.5, 0.5, (0.0, 4.0), 256)
    x, f, _ = curve.points.T
    assert np.abs(f - _reference_band(1.0, 0.5, 0.5, x)).max() < 8.5e-11


def _away_from_the_tangent(lam, C1, z0, sign, x_range=(0.0, 4.0), n=256):
    # the reference loses its accuracy as z^2 + 2*C1 nears 0, so compare
    # only while |z^2 + 2*C1| > 0.05
    x, z, zp, truncated = _band_profile(lam, C1, z0, sign, x_range, n)
    keep = np.abs(z**2 + 2.0 * C1) > 0.05
    k = n if keep.all() else int(np.argmin(keep))
    ref = _reference_band(1.0 + lam**2, C1, z0, x[:k], sign)
    return x, z, truncated, float(np.abs(z[:k] - ref).max())


# the closed form's error is rounding; these bounds are the tight
# reference's own error on each profile (at most 4.8e-12), rounded up
@pytest.mark.parametrize("z0, sign", [(1.5, -1), (1.9, 1), (1.05, -1)])
def test_dn_profile_matches_the_reference_up_to_its_tangent(z0, sign):
    # C1 = -1.5 < -1/p: z^2 stays in [1, 5] and z = a dn(u, m) never
    # changes sign; every such profile turns vertical where z^2 = 3
    x, z, truncated, err = _away_from_the_tangent(0.0, -1.5, z0, sign)
    assert err < 2e-11
    assert truncated and x[-1] < 4.0
    assert z[-1] ** 2 == pytest.approx(3.0, abs=1e-12)
    assert np.all(np.sign(z) == np.sign(z0))


def test_separatrix_profiles_match_the_reference():
    # C1 = -1/p is m = 1, where cn = dn = sech: z0 = 0.6 with sign -1 runs
    # down the tail z -> 0 and never turns vertical, z0 = 1.2 with sign +1
    # reaches the tangent
    x, z, truncated, err = _away_from_the_tangent(1.0, -0.5, 0.6, -1)
    assert err < 2e-11 and not truncated and x[-1] == 4.0
    assert 0.0 < z[-1] < 0.02
    x, z, truncated, err = _away_from_the_tangent(1.0, -0.5, 1.2, 1)
    assert err < 2e-11 and truncated
    assert z[-1] ** 2 == pytest.approx(1.0, abs=1e-12)
    # z0 = 0 is the separatrix's fixed point
    x, z, zp, truncated = _band_profile(1.0, -0.5, 0.0, 1, (0.0, 4.0), 64)
    assert not truncated and not z.any() and not zp.any()


@pytest.mark.parametrize("sign", [1, -1])
def test_cn_start_inside_the_tangents_matches_the_reference(sign):
    # C1 = -0.3 gives m = 0.65 > 1/2, so z^2 = 0.6 cuts the band; z0 = 0.3
    # starts with z^2 + 2*C1 < 0, between the two tangents of its branch
    x, z, truncated, err = _away_from_the_tangent(0.0, -0.3, 0.3, sign)
    assert err < 2e-11
    assert truncated and z[-1] ** 2 == pytest.approx(0.6, abs=1e-12)


def test_long_range_profile_keeps_its_period():
    # X gains 4E(m) - 2K(m) per period of z, so one table serves the whole
    # range; the reference drifts by 2.1e-9 over it, the closed form's
    # invariant holds to rounding
    lam, C1 = 1.0, 0.25
    z0 = 0.5 * np.sqrt(z_bounds(lam, C1)[1])
    x, z, zp, truncated = _band_profile(lam, C1, z0, 1, (0.0, 200.0), 4001)
    assert not truncated
    assert np.abs(z - _reference_band(2.0, C1, z0, x)).max() < 1e-8
    assert np.abs(zp**2 - slope_radicand(z, lam, C1)).max() < 1e-12
    # on the same samples the first 4 of 200 agree with a short profile
    x4, z4, _, _ = _band_profile(lam, C1, z0, 1, (0.0, 4.0), 81)
    assert x4.tobytes() == x[:81].tobytes()
    assert np.abs(z[:81] - z4).max() < 1e-14
