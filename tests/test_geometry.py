from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipe

from conftest import circle2, circle3, ellipse2, helix3
from curveflow.csf import distance_ratio
from curveflow.csf_solitons import abresch_langer_partner
from curveflow.errors import CurveFlowError
from curveflow.geometry import (
    MIN_CHORD,
    SampledCurve,
    _solve_tridiagonal,
    _tridiagonal_solver,
    curve_diameter,
    cumulative_arclength,
    directed_hausdorff,
    enclosed_area,
    frenet,
    hausdorff_distance,
    integrate_along,
    isoperimetric_ratio,
    resample_arclength,
    resample_points,
    segment_lengths,
    total_length,
)
from curveflow.hasimoto import FilamentFunction
from curveflow.vfe import (BiotSavartOptions, biot_savart_velocity, binormal_velocity,
                           rigid_motion_fit)
from curveflow.vfe_solitons import apply_rotation, transverse_rotation_profile


def test_curve_validation():
    with pytest.raises(ValueError):
        SampledCurve(2, False, np.zeros((3, 2)))          # too few points
    with pytest.raises(ValueError):
        SampledCurve(2, False, np.zeros((8, 3)))          # shape mismatch
    with pytest.raises(ValueError):
        SampledCurve(2, False, [[0, 0], [1, 0], [1, 0], [2, 0]])  # repeat
    pts = np.column_stack([np.arange(4.0), np.zeros(4)])
    pts[2, 0] = np.nan
    with pytest.raises(ValueError):
        SampledCurve(2, False, pts)


@pytest.mark.parametrize("closed", [False, True])
def test_chord_squares_stay_normal_doubles(closed):
    # a unit-spaced line's chords are exactly the scale; sqrt(tiny) = 2**-511
    line = np.column_stack([np.arange(4.0), [0.0, 1.0, 1.0, 0.0]])
    assert MIN_CHORD == 2.0**-511
    SampledCurve(2, closed, MIN_CHORD * line)
    SampledCurve(2, closed, 1e153 * line)
    for scale in (MIN_CHORD / 2, 1e-160, 1e155):
        with pytest.raises(ValueError, match="distinct"):
            SampledCurve(2, closed, scale * line)
    # finite points whose difference overflows
    with pytest.raises(ValueError, match="distinct"):
        SampledCurve(2, closed, [[-1e308, 0.0], [1e308, 0.0], [1e308, 1.0], [0.0, 1.0]])


OPEN_ARC = SampledCurve(2, False, circle2(64).points[:40])
# three collinear samples traced out and back enclose no area
FLAT_LOOP = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize("call, error, token", [
    (lambda: distance_ratio(OPEN_ARC), ValueError, None),
    (lambda: enclosed_area(OPEN_ARC), ValueError, None),
    (lambda: resample_points(circle2(64).points, True, 3), ValueError, None),
    (lambda: binormal_velocity(circle2(64)), ValueError, None),
    (lambda: biot_savart_velocity(circle2(64), 0, BiotSavartOptions(1e-3, 0.5)),
     ValueError, None),
    (lambda: rigid_motion_fit(circle3(64), circle3(65), 1e-3), CurveFlowError,
     "unaligned-trajectory"),
    (lambda: SampledCurve(4, False, np.arange(20.0).reshape(5, 4)), ValueError, None),
    (lambda: isoperimetric_ratio(SampledCurve(2, True, FLAT_LOOP)), CurveFlowError,
     "degenerate-curve"),
    (lambda: FilamentFunction(0.0, 0.1, np.ones(3)), ValueError, None),
    (lambda: abresch_langer_partner(-1e-30, 1.0), CurveFlowError, "outside-annulus-branch"),
    (lambda: transverse_rotation_profile(0.3, 0.1, (1.0, -1.0), 64), ValueError, None),
    (lambda: transverse_rotation_profile(0.3, 0.1, (-1.0, 1.0), 8), ValueError, None),
], ids=["distance-ratio-open", "area-open", "resample-three", "binormal-planar",
        "biot-savart-planar", "rigid-fit-unequal-n", "four-dimensions",
        "area-of-a-flat-loop", "filament-three-samples", "partner-past-1e12",
        "transverse-decreasing", "transverse-eight-samples"])
def test_library_refusals(call, error, token):
    with pytest.raises(error) as err:
        call()
    if token is not None:
        assert err.value.token == token


def test_points_are_frozen():
    c = circle2(16)
    with pytest.raises(ValueError):
        c.points[0, 0] = 5.0


def test_apply_rotation_accepts_read_only_points():
    c = circle3(16)
    assert not c.points.flags.writeable
    turned = apply_rotation(c, [0.0, 0.0, 1.0], 0.5 * np.pi)
    np.testing.assert_allclose(turned.points[:, 0], -c.points[:, 1], atol=1e-15)
    np.testing.assert_allclose(turned.points[:, 1], c.points[:, 0], atol=1e-15)
    assert not turned.points.flags.writeable


def test_circle_length_and_area():
    c = circle2(512, radius=1.3)
    # inscribed polygon: relative length deficit is (kappa ds)^2 / 24
    assert total_length(c) == pytest.approx(2 * np.pi * 1.3, rel=1e-4)
    assert enclosed_area(c) == pytest.approx(np.pi * 1.3**2, rel=1e-4)
    assert isoperimetric_ratio(circle2(2048)) == pytest.approx(1.0, abs=1e-5)


def test_an_area_whose_coordinate_products_overflow_is_exact():
    # corners out to 2e154 multiply past the largest double; the area is 1e308
    square = SampledCurve(2, True, 1e154 * np.array([[1.0, 1.0], [2.0, 1.0], [2.0, 2.0],
                                                     [1.0, 2.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert enclosed_area(square) == 1e154 * 1e154


def test_ellipse_perimeter_matches_quadrature():
    a, b = 2.0, 1.0
    oracle = 4.0 * a * ellipe(1.0 - (b / a) ** 2)
    assert total_length(ellipse2(a, b, 4096)) == pytest.approx(oracle, rel=1e-6)
    assert enclosed_area(ellipse2(a, b, 2048)) == pytest.approx(np.pi * a * b,
                                                                rel=1e-5)


def test_open_graph_length_matches_quadrature():
    xs = np.linspace(-1.5, 1.5, 2048)
    pts = np.column_stack([xs, -np.log(np.cos(xs))])
    oracle, _ = quad(lambda x: 1.0 / np.cos(x), -1.5, 1.5)
    assert total_length(SampledCurve(2, False, pts)) == pytest.approx(
        oracle, rel=1e-5)


def test_cumulative_arclength_shape():
    c = circle2(64)
    s = cumulative_arclength(c)
    assert s[0] == 0.0
    assert s.shape == (c.n,)
    assert np.all(np.diff(s) > 0)
    assert segment_lengths(c).shape == (64,)      # closing segment included
    assert segment_lengths(helix3(n=64)).shape == (63,)


def test_resample_uniformity_and_endpoints():
    # strongly non-uniform input parameter
    u = np.linspace(0, 1, 300) ** 2
    th = 2 * np.pi * u[:-1]
    c = SampledCurve(2, True, np.column_stack([np.cos(th), np.sin(th)]))
    r = resample_arclength(c, 256)
    h = segment_lengths(r)
    assert r.n == 256 and r.closed
    assert h.max() / h.min() < 1.0 + 1e-6
    # blended-arc interpolation keeps samples on the circle
    assert np.abs(np.linalg.norm(r.points, axis=1) - 1.0).max() < 1e-6

    hx = helix3(n=200)
    r2 = resample_arclength(hx, 128)
    assert np.allclose(r2.points[0], hx.points[0])
    assert np.allclose(r2.points[-1], hx.points[-1])


def test_resample_corner_guard_falls_back_to_chords():
    square = SampledCurve(2, True, np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    r = resample_arclength(square, 64)
    # corners turn by pi/2 > MAX_TURN_ANGLE: samples stay on the edges
    d = np.minimum.reduce([np.abs(r.points[:, 0]), np.abs(r.points[:, 1]),
                           np.abs(r.points[:, 0] - 1), np.abs(r.points[:, 1] - 1)])
    assert d.max() < 1e-9


def test_resample_is_continuous_in_its_input():
    # collinear triples (random walks, chords left by the first pass) must
    # not flip between arc and chord under a rounding-level shift
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        d, closed = int(rng.integers(2, 4)), bool(rng.integers(2))
        n = int(rng.integers(4, 120))
        if rng.integers(2):
            pts = np.cumsum(rng.normal(size=(n, d)), axis=0)
        else:
            th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
            pts = np.zeros((n, d))
            pts[:, 0], pts[:, 1] = np.cos(th), np.sin(th)
            pts += 0.05 * rng.normal(size=(n, d))
        m = int(rng.integers(4, 4 * n))
        a = resample_arclength(SampledCurve(d, closed, pts), m).points
        b = resample_arclength(SampledCurve(d, closed, pts + 1e-15), m).points
        worst = max(worst, float(np.abs(b - a).max()))
    assert worst < 1e-9


def test_frenet_circle():
    fr = frenet(circle2(1024, radius=2.0))
    assert np.abs(fr.curvature - 0.5).max() < 1e-4
    # inward normal for a counterclockwise loop
    assert np.allclose(fr.normal[0], [-1.0, 0.0], atol=1e-4)
    assert fr.torsion is None


def test_frenet_helix():
    r, c = 1.0, 0.5
    fr = frenet(helix3(r, c, 2.0, 1024))
    k_true = r / (r**2 + c**2)
    t_true = c / (r**2 + c**2)
    sl = slice(16, -16)    # one-sided end stencils are rougher
    assert np.abs(fr.curvature[sl] - k_true).max() < 1e-4
    assert np.abs(fr.torsion[sl] - t_true).max() < 1e-3
    assert fr.torsion_defined.all()
    ortho = np.abs(np.einsum("ij,ij->i", fr.tangent, fr.normal)).max()
    assert ortho < 1e-8
    assert np.abs(np.cross(fr.tangent, fr.normal) - fr.binormal).max() < 1e-8


def test_frenet_straight_line_has_no_torsion():
    pts = np.column_stack([np.linspace(0, 1, 64), np.zeros(64), np.zeros(64)])
    fr = frenet(SampledCurve(3, False, pts))
    assert np.abs(fr.curvature).max() < 1e-10
    assert not fr.torsion_defined.any()


def test_integrate_along_constant():
    c = circle2(512)
    assert integrate_along(c, np.ones(c.n)) == pytest.approx(total_length(c))


def test_hausdorff_basic():
    a = circle2(256)
    b = circle2(256, radius=1.1)
    d = hausdorff_distance(a, b)
    assert d == pytest.approx(0.1, abs=1e-3)
    assert directed_hausdorff(a.points, b.points) <= d + 1e-15
    assert hausdorff_distance(a, a) == 0.0


def test_curve_diameter():
    assert curve_diameter(ellipse2(2.0, 1.0, 512)) == pytest.approx(4.0, rel=1e-4)
    assert curve_diameter(circle2(64).points) == pytest.approx(2.0, rel=1e-3)


@pytest.mark.parametrize("dtype", [float, complex])
def test_solve_tridiagonal_raises_on_a_zero_pivot(dtype):
    off = np.zeros(2)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _solve_tridiagonal(off, np.array([0.0, 1.0, 1.0]), off, np.ones(3, dtype=dtype))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _tridiagonal_solver(off.astype(dtype), np.array([0.0, 1.0, 1.0], dtype=dtype),
                            off.astype(dtype))


@pytest.mark.parametrize("dtype", [float, complex])
def test_tridiagonal_solver_repeats_the_bits_of_one_solve(dtype):
    # random bands make ?gttrf swap rows as often as not; one factorization
    # serves every right-hand side
    rng = np.random.default_rng(3)

    def draw(size):
        x = rng.normal(size=size)
        return x + 1j * rng.normal(size=size) if dtype is complex else x

    for n in (3, 17, 512):
        dl, d, du = draw(n - 1), draw(n), draw(n - 1)
        solve = _tridiagonal_solver(dl, d, du)
        for _ in range(3):
            b = draw(n)
            want = _solve_tridiagonal(dl, d, du, b)
            got = solve(b.copy())
            assert got.shape == want.shape
            assert np.array_equal(got, want)
