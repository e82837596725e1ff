"""Property tests: derivative stencils, resampling, curvature under
similarity, storage and frame round trips, range parsing, the exit contract
of the CLI commands that need no input file, and the bits of the
hand-written 3-D products."""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_banded
from scipy.spatial.transform import Rotation

from conftest import helix3
from curveflow import cli, storage, vfe
from curveflow.cli import _step_options as cli_step_options
from curveflow.cli import main, parse_range
from curveflow.errors import ConfigError
from curveflow.flow import FlowTrajectory, StepOptions
from curveflow.geometry import (KAPPA_FLOOR_SCALE, SampledCurve, _cross,
                                _lagrange_d1_d2, chord_lengths, curve_diameter,
                                frenet, hausdorff_distance, resample_arclength)
from curveflow.hasimoto import (FilamentFunction, FrameState, HasimotoSolitonSpec,
                                hasimoto_soliton, hasimoto_soliton_filament,
                                hasimoto_transform, nlcse_evolve, nlcse_step,
                                reconstruct_frame)
from curveflow.vfe import STABILITY_FACTOR, _velocity, binormal_velocity
from curveflow.vfe_solitons import rotation_residual, z_bounds

BOUNDED = settings(max_examples=50, deadline=None)
ROUND_TRIP = 1e-12


@st.composite
def smooth_curves(draw, closed=None, dim=None):
    """A circle or arc with three low Fourier modes, 2-D or 3-D, 64 to 256 points.

    The mode amplitudes decay as 0.1/k^2, which keeps the speed of the
    parametrization above 0.36.  The curves turn by at most about 0.25 rad
    per segment.
    """
    dim = draw(st.sampled_from((2, 3))) if dim is None else dim
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
@given(smooth_curves())
def test_open_and_closed_stencils_share_the_interior(curve):
    pts = curve.points
    open_ = _lagrange_d1_d2(pts, chord_lengths(pts, False), False)
    closed = _lagrange_d1_d2(pts, chord_lengths(pts, True), True)
    for a, b in zip(open_, closed):
        np.testing.assert_array_equal(a[1:-1], b[1:-1])


@BOUNDED
@given(st.integers(4, 64).flatmap(
           lambda n: arrays(float, n - 1, elements=st.floats(0.25, 1.0))),
       arrays(float, 4, elements=st.floats(-1.0, 1.0).filter(
           lambda c: c == 0.0 or abs(c) >= 1e-6)))
def test_stencil_is_exact_on_low_degree_polynomials(steps, coef):
    # a graded grid on [-1, 1] whose spacing varies by up to a factor 4
    s = np.concatenate([[0.0], np.cumsum(steps)])
    s = 2.0 * s / s[-1] - 1.0
    cubic = np.polynomial.Polynomial(coef)
    quadratic = np.polynomial.Polynomial(coef[:3])
    values = np.column_stack([cubic(s), quadratic(s)])
    h = np.diff(s)
    d1, d2 = _lagrange_d1_d2(values, h, False)
    # rounding in the values grows by 1/h in d1 and 1/h^2 in d2; over 20,000
    # random grids the error stayed below 1.6e-15 of these scales
    tol1 = 1e-13 * np.abs(coef).sum() / h.min()
    tol2 = tol1 / h.min()
    ends = [0, -1]
    np.testing.assert_allclose(d1[ends, 0], cubic.deriv(1)(s[ends]), rtol=0, atol=tol1)
    np.testing.assert_allclose(d2[ends, 0], cubic.deriv(2)(s[ends]), rtol=0, atol=tol2)
    np.testing.assert_allclose(d1[:, 1], quadratic.deriv(1)(s), rtol=0, atol=tol1)
    np.testing.assert_allclose(d2[:, 1], quadratic.deriv(2)(s), rtol=0, atol=tol2)


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
        traj.append(float(t), curve)
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


@settings(max_examples=10, deadline=None)
@given(st.floats(0.5, 1.0), st.floats(-1.0, 1.0), st.floats(0.5, 2.0),
       st.integers(1024, 2048))
def test_helix_survives_transform_and_reconstruction(radius, pitch, turns, n):
    # at most criterion 10's sample spacing (radius 1, pitch 0.5, two turns on
    # 1024 points): the second-order transport error grows with the spacing
    hx = helix3(radius, pitch, turns, n)
    fr = frenet(hx)
    seed = FrameState(T=fr.tangent[0], N_complex=fr.normal[0] + 1j * fr.binormal[0],
                      position=hx.points[0])
    rebuilt, _ = reconstruct_frame(hasimoto_transform(fr), seed)
    # criterion 10's bound
    assert hausdorff_distance(rebuilt, hx) < 1e-3


range_parts = st.one_of(st.floats().map(repr), st.integers(-10**4, 10**4).map(str),
                        st.text(max_size=4))


@BOUNDED
@given(st.lists(range_parts, max_size=4).map(":".join))
def test_parse_range_raises_only_config_error(text):
    # text parts hold at most 4 characters and integers at most 10^4, so no
    # example asks for a grid of more than 10^4 points
    try:
        grid = parse_range(text)
    except ConfigError:
        return
    assert grid.size == int(text.split(":")[2])
    assert np.isfinite(grid).all()


@st.composite
def rotating_profile_argv(draw, bad_grid=False):
    """``vfe soliton`` flags of all three cases.  The x-axis and planar cases
    take the edges: z0^2 on either end of the band or on the vertical-tangent
    locus z0^2 = -2*C1, the separatrix C1 = -1/p and C1 = 0; the transverse
    case takes C1 = 0 and starts on either side of its band edges.  Ranges
    run up to 10^6, increasing with 16 to 128 samples, or with ``bad_grid``
    the grids every case refuses: decreasing, or under 16 samples."""
    case = draw(st.sampled_from(("x-axis", "planar", "transverse-axis")))
    if case == "transverse-axis":
        flags = [f"--C1={draw(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)))!r}",
                 f"--C2={draw(st.floats(-1.5, 1.5))!r}"]
        start = draw(st.floats(-1.5, 1.5))
    else:
        lam = 0.0 if case == "planar" else draw(
            st.one_of(st.sampled_from((0.0, 1.0, 2.0)), st.floats(0.0, 3.0)))
        p = 1.0 + lam * lam
        C1 = draw(st.one_of(st.sampled_from((-1.0, 0.0)), st.floats(-3.0, 0.999))) / p
        lo, hi = z_bounds(lam, C1)
        z2 = draw(st.one_of(st.sampled_from((lo, hi, -2.0 * C1)), st.floats(lo, hi)))
        z0 = draw(st.sampled_from((-1.0, 1.0))) * float(np.sqrt(max(z2, 0.0)))
        flags = [f"--lam={lam!r}", f"--C1={C1!r}", f"--z0={z0!r}",
                 f"--sign={draw(st.sampled_from((-1, 1)))}"]
        start = draw(st.floats(-10.0, 10.0))
    length = draw(st.one_of(st.floats(1e-3, 50.0), st.sampled_from((200.0, 1e4, 1e6))))
    if bad_grid:
        forward = draw(st.booleans())
        count = draw(st.integers(1, 15 if forward else 128))
    else:
        forward, count = True, draw(st.integers(16, 128))
    end = start + length if forward else start - length
    return ["vfe", "soliton", "--case", case, *flags, f"--x={start!r}:{end!r}:{count}"]


def run_quietly(argv):
    """Exit code, stderr and, on exit 0, the written profile's x, y, z, of a
    run in which any numpy warning is an error."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        out = Path(tmp) / "o"
        code = main(argv + ["--out", str(out)])
        xyz = storage.read_curve(out / "profile.curve").points.T if code == 0 else None
    return code, err.getvalue(), xyz


# 2/3 of 225 examples, 150, are x-axis or planar
@settings(max_examples=225, deadline=None)
@given(rotating_profile_argv())
def test_rotating_profiles_exit_cleanly(argv):
    # a profile is written finite with x strictly increasing, or refused with
    # exit 3 and a token; no numpy warning on the way
    code, err, xyz = run_quietly(argv)
    if code == 0:
        assert np.isfinite(xyz).all()
        assert np.all(np.diff(xyz[0]) > 0.0)
        assert err == ""
    else:
        assert code == 3
        assert re.fullmatch(r"[a-z]+(-[a-z]+)*", err.splitlines()[-1])


@settings(max_examples=60, deadline=None)
@given(rotating_profile_argv(bad_grid=True))
def test_rotating_profiles_refuse_a_decreasing_or_short_grid(argv):
    code, err, _ = run_quietly(argv)
    assert code == 2
    assert err.splitlines()[-1] == "invalid-parameter"


# signed zeros, subnormals, the squares either side of the largest double,
# and the values no parameter may take
EDGE_VALUES = (0.0, -0.0, 1e-160, -1e-160, 1e-320, 5e-324, 1e154, 1e155, 1e300, -1e300,
               float("nan"), float("inf"), -float("inf"))


@st.composite
def cheap_command_argv(draw):
    """Flags of the four subcommands that need no input and no solve: the
    kink, the dilating filament with and without its residual, the grim reaper
    and the Abresch-Langer partner.  Each value is an edge value or lies in
    [-3, 3], and each grid has 1 to 64 samples."""
    def value():
        return repr(draw(st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-3.0, 3.0))))

    def grid():
        return f"{value()}:{value()}:{draw(st.integers(1, 64))}"

    kind = draw(st.sampled_from(("kink", "dilating", "grim-reaper", "abresch-langer")))
    if kind == "kink":
        return ["hasimoto", "soliton", f"--nu={value()}", f"--tau0={value()}",
                f"--t={value()}", f"--s={grid()}"]
    if kind == "dilating":
        return ["hasimoto", "dilating", f"--a={value()}", f"--t={value()}", f"--x={grid()}",
                *draw(st.sampled_from(([], ["--check-residual"])))]
    if kind == "grim-reaper":
        return ["csf", "soliton", "--grim-reaper", f"--t={value()}", f"--x={grid()}"]
    return ["csf", "soliton", "--abresch-langer", f"--B={value()}", f"--r-min={value()}"]


# the kink far from its core, where cosh and then eta overflow to a zero sech;
# a kink phase, a dilating phase x^2/(4t), and a residual stencil and product
# past the largest double, and a stencil over a step whose square is 0, each
# refused
@settings(max_examples=200, deadline=None)
@given(cheap_command_argv())
@example(["hasimoto", "soliton", "--nu=1.0", "--tau0=0.5", "--t=0.0", "--s=-1000.0:1000.0:64"])
@example(["hasimoto", "soliton", "--nu=9e153", "--tau0=0.0", "--t=0.0",
          "--s=1e155:1.1e155:16"])
@example(["hasimoto", "soliton", "--nu=1.0", "--tau0=1e154", "--t=0.0", "--s=0.0:1e300:16"])
@example(["hasimoto", "dilating", "--a=1e-320", "--t=1e-320", "--x=-2.0:1e-320:37"])
@example(["hasimoto", "dilating", "--a=-3e-134", "--t=0.65", "--x=-1e-160:-0.0:56",
          "--check-residual"])
@example(["hasimoto", "dilating", "--a=1e154", "--t=2.3", "--x=2.3:1e154:54",
          "--check-residual"])
@example(["hasimoto", "dilating", "--a=1.0", "--t=1.0", "--x=0.0:1e-161:64",
          "--check-residual"])
def test_cheap_commands_exit_cleanly(argv):
    # exit 0 with every written value finite, or exit 2 or 3 with a token
    # last; no numpy warning on the way
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("error")
        out = Path(tmp) / "o"
        code = main(argv + ["--out", str(out)])
        written = [f.read_text() for f in out.iterdir()] if out.exists() else []
    assert code in (0, 2, 3)
    if code == 0:
        assert not any("NaN" in text or "Infinity" in text for text in written)
    else:
        assert re.fullmatch(r"[a-z]+(-[a-z]+)*", err.getvalue().splitlines()[-1])


# a step size or stop time: an edge value, or a multiple of the curve's squared
# scale, the size of its steps
STEP_EDGES = (0.0, 5e-324, 1e-300, 1e-10, 1e300, -1.0, float("nan"), float("inf"))
CFL_EDGES = (0.0, 5e-324, 1e-10, 0.7, 0.7000000000000001, 1.0, 1.0000000000000002,
             float("nan"))
EVOLVE_MAX_STEPS = 100


@st.composite
def evolve_argv(draw):
    """``csf evolve`` or ``vfe evolve`` flags and the curve file they read: 4 to
    64 samples, open or closed, in the plane or in space, on a wobbled circle or
    at random points, scaled by 1e-150, 1e150, a scale either side of the chord
    bounds, or a factor in [0.1, 10].  ``--dt`` and ``--cfl`` take their edges or
    lie in range, and the stop time is an edge or small."""
    flow = draw(st.sampled_from(("csf", "vfe")))
    dim = draw(st.sampled_from((2, 3, 3 if flow == "vfe" else 2)))
    n, closed = draw(st.integers(4, 64)), draw(st.booleans())
    if draw(st.booleans()):
        t = np.linspace(0.0, 2.0 * np.pi if closed else draw(st.floats(0.5, 5.0)), n,
                        endpoint=not closed)
        coef = draw(arrays(float, (2, dim), elements=st.floats(-0.3, 0.3)))
        pts = np.zeros((n, dim))
        pts[:, 0], pts[:, 1] = np.cos(t), np.sin(t)
        pts += np.cos(2.0 * t)[:, None] * coef[0] + np.sin(3.0 * t)[:, None] * coef[1]
    else:
        pts = draw(arrays(float, (n, dim), elements=st.floats(-1.0, 1.0), unique=True))
    scale = draw(st.one_of(st.sampled_from((1e-150, 1e150, 1e-160, 1e155)),
                           st.floats(0.1, 10.0)))

    def step_size(edges):
        return repr(draw(st.one_of(st.sampled_from(edges),
                                   st.floats(1e-4, 1.0).map(lambda f: f * scale * scale))))

    step = draw(st.sampled_from(("--dt", "--cfl", None)))
    flags = ["--stop-time", step_size(STEP_EDGES)]
    if step == "--dt":
        flags.append(f"--dt={step_size(STEP_EDGES)}")
    elif step == "--cfl":
        cfl = draw(st.one_of(st.sampled_from(CFL_EDGES), st.floats(0.01, 1.0)))
        flags.append(f"--cfl={cfl!r}")
    flags += draw(st.sampled_from(([], ["--record-every=1"], ["--n=32"])))
    curve = {"dimension": dim, "closed": closed, "points": (scale * pts).tolist()}
    return [flow, "evolve", *flags], curve


def _capped_step_options(args):
    return dataclasses.replace(cli_step_options(args), max_steps=EVOLVE_MAX_STEPS)


# an open polyline out along the x-axis and back, whose tangent estimate
# vanishes at the turn; an arc of scale 1e154 stepped by 1e-300, where the
# implicit CSF step's scaled h^2 overflows; and a 64-gon of radius 1e154, whose
# coordinate products overflow in its area
TURNING_BACK = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [2.0, 0.0], [1.0, 0.0],
                [0.0, 0.0]]
HUGE_ARC = (1e154 * np.column_stack([np.cos(np.linspace(0.0, 2.0, 16)),
                                     np.sin(np.linspace(0.0, 2.0, 16))])).tolist()
HUGE_POLYGON = (1e154 * np.column_stack([np.cos(np.arange(64) * np.pi / 32),
                                         np.sin(np.arange(64) * np.pi / 32)])).tolist()


@settings(max_examples=200, deadline=None)
@given(evolve_argv())
@example((["csf", "evolve", "--stop-time", "1.0"],
          {"dimension": 2, "closed": False, "points": TURNING_BACK}))
@example((["vfe", "evolve", "--stop-time", "1.0"],
          {"dimension": 3, "closed": False, "points": [p + [0.0] for p in TURNING_BACK]}))
@example((["csf", "evolve", "--stop-time", "1e-300", "--dt=1e-300"],
          {"dimension": 2, "closed": False, "points": HUGE_ARC}))
@example((["csf", "evolve", "--stop-time", "1e300"],
          {"dimension": 2, "closed": True, "points": HUGE_POLYGON}))
def test_evolve_commands_exit_cleanly(case):
    # exit 0 with every written value finite, a time, length, curvature and
    # bending in each diagnostics row, and a stop-time run at its stop time;
    # or exit 2 or 3 with a token last; no numpy warning on the way.
    # The CLI sets no step cap; a run here stops after EVOLVE_MAX_STEPS
    # steps, so that a subnormal step ends in seconds too
    argv, curve = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings(), \
            mock.patch.object(cli, "_step_options", _capped_step_options):
        warnings.simplefilter("error")
        path, out = Path(tmp) / "in.curve", Path(tmp) / "o"
        path.write_text(json.dumps(curve))
        code = main(argv + ["--input", str(path), "--out", str(out)])
        written = {f.name: f.read_text() for f in out.iterdir()} if out.exists() else {}
    assert code in (0, 2, 3)
    if code == 0:
        assert not any("NaN" in text or "Infinity" in text for text in written.values())
        rows = list(csv.DictReader(io.StringIO(written["diagnostics.csv"])))
        assert rows
        summary = json.loads(written["summary.json"])
        # a curvature past the largest double is a singularity: the guard stops
        # on the frame that has one, so only that last frame may read inf
        if summary["stop_reason"] == "approaching-singularity":
            rows[-1] = {k: v for k, v in rows[-1].items() if k not in ("max_curvature",
                                                                       "bending")}
        for row in rows:
            assert all(np.isfinite(float(row[col]))
                       for col in ("time", "length", "max_curvature", "bending")
                       if col in row)
            assert all(cell == "" or np.isfinite(float(cell)) for cell in row.values())
        if summary["stop_reason"] == "stop-time":
            stop_time = float(argv[argv.index("--stop-time") + 1])
            assert summary["final_time"] >= stop_time * (1.0 - 1e-12)
    else:
        assert re.fullmatch(r"[a-z]+(-[a-z]+)*", err.getvalue().splitlines()[-1])


# ---------------------------------------------------------------------------
# the diagnose commands on drawn trajectories

DIAGNOSE_SCALES = (2.0**-500, 1e-150, 1e150, 2.0**500)


@st.composite
def diagnose_case(draw):
    """A ``csf evolve`` or ``vfe evolve`` run of a wobbled circle or arc of 16
    to 48 samples, scaled near 2^-500 or 2^500 or by a factor in [0.1, 10],
    recording every step to a stop time of a few steps; and a ``diagnose``
    command on its trajectory."""
    flow = draw(st.sampled_from(("csf", "vfe")))
    dim = 2 if flow == "csf" else 3
    n, closed = draw(st.integers(16, 48)), draw(st.booleans())
    t = np.linspace(0.0, 2.0 * np.pi if closed else draw(st.floats(0.5, 5.0)), n,
                    endpoint=not closed)
    coef = draw(arrays(float, (2, dim), elements=st.floats(-0.1, 0.1)))
    pts = np.zeros((n, dim))
    pts[:, 0], pts[:, 1] = np.cos(t), np.sin(t)
    pts += np.cos(2.0 * t)[:, None] * coef[0] + np.sin(3.0 * t)[:, None] * coef[1]
    scale = draw(st.one_of(st.sampled_from(DIAGNOSE_SCALES), st.floats(0.1, 10.0)))
    stop = draw(st.floats(0.05, 0.4)) * scale * scale
    evolve = [flow, "evolve", f"--stop-time={stop!r}", "--record-every=1"]
    command = draw(st.sampled_from(("residuals", "huisken", "distance-ratio")))
    diagnose = ["diagnose", command] + (["--flow", flow] if command == "residuals" else [])
    curve = {"dimension": dim, "closed": closed, "points": (scale * pts).tolist()}
    return evolve, curve, diagnose


@settings(max_examples=60, deadline=None)
@given(diagnose_case())
def test_diagnose_commands_exit_cleanly(case):
    # a diagnose command exits 0 with a finite value in every table cell, or
    # exits 2 or 3 with a token last; no numpy warning on the way
    evolve, curve, diagnose = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(), \
            mock.patch.object(cli, "_step_options", _capped_step_options):
        warnings.simplefilter("error")
        path, traj, out = Path(tmp) / "in.curve", Path(tmp) / "traj", Path(tmp) / "o"
        path.write_text(json.dumps(curve))
        with contextlib.redirect_stderr(io.StringIO()):
            if main(evolve + ["--input", str(path), "--out", str(traj)]) != 0:
                return
        with contextlib.redirect_stderr(err):
            code = main(diagnose + ["--trajectory", str(traj), "--out", str(out)])
        tables = [f.read_text() for f in out.glob("*.csv")] if out.exists() else []
    assert code in (0, 2, 3)
    if code == 0:
        assert tables
        for table in tables:
            for row in list(csv.reader(io.StringIO(table)))[1:]:
                assert all(np.isfinite(float(cell)) for cell in row), row
    else:
        assert re.fullmatch(r"[a-z]+(-[a-z]+)*", err.getvalue().splitlines()[-1])


# ---------------------------------------------------------------------------
# the 3-D path writes its cross products and norms by hand; these pin it to
# np.cross, np.linalg.norm and einsum bit for bit


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


@st.composite
def space_curves(draw):
    """Smooth 3-D curves; half of them with a straight run, where the
    curvature drops below the floor and normal and torsion are NaN."""
    curve = draw(smooth_curves(dim=3))
    if draw(st.booleans()):
        pts = np.array(curve.points)
        i = draw(st.integers(0, curve.n // 2))
        j = i + curve.n // 4
        pts[i:j] = np.linspace(pts[i], pts[j - 1], j - i)
        curve = curve.with_points(pts)
    return curve


@BOUNDED
@given(st.integers(1, 64).flatmap(
           lambda n: arrays(float, (2, n, 3), elements=st.floats(-1e150, 1e150))))
def test_cross_matches_numpy(uv):
    u, v = uv
    assert_same_bits(_cross(u.T, v.T).T, np.cross(u, v))
    assert_same_bits(_cross(u[0][:, None], v.T).T, np.cross(u[0], v))


@BOUNDED
@given(space_curves())
def test_frenet_matches_the_numpy_reference(curve):
    h = chord_lengths(curve.points, curve.closed)
    d1, d2 = _lagrange_d1_d2(curve.points, h, curve.closed)
    speed = np.linalg.norm(d1, axis=1)
    tangent = d1 / speed[:, None]
    cross = np.cross(d1, d2)
    cross_norm = np.linalg.norm(cross, axis=1)
    kappa = cross_norm / speed**3
    defined = kappa >= KAPPA_FLOOR_SCALE / float(np.mean(h))
    w = d2 - np.einsum("ij,ij->i", d2, tangent)[:, None] * tangent
    wn = np.linalg.norm(w, axis=1)
    wn_safe = np.where(defined & (wn > 0), wn, 1.0)
    normal = np.where(defined[:, None], w / wn_safe[:, None], np.nan)
    binormal = np.where(defined[:, None], np.cross(tangent, normal), np.nan)
    d3 = _lagrange_d1_d2(d2, h, curve.closed)[0]
    cn2 = np.where(defined, cross_norm**2, 1.0)
    torsion = np.where(defined, np.einsum("ij,ij->i", cross, d3) / cn2, np.nan)

    fr = frenet(curve)
    for got, want in [(fr.tangent, tangent), (fr.normal, normal),
                      (fr.binormal, binormal), (fr.curvature, kappa),
                      (fr.torsion, torsion), (fr.torsion_defined, defined)]:
        assert_same_bits(got, want)


def _unit_chord_binormal(pts, h, closed):
    # the binormal kernel's arithmetic: np.cross of the unit chords on either
    # side of a sample, times 2/(h- + h+); the wrap padded on a closed curve,
    # 0 at the pinned open ends
    if closed:
        pts, h = np.concatenate([pts[-1:], pts, pts[:1]]), np.concatenate([h[-1:], h])
    t = np.diff(pts, axis=0) / h[:, None]
    vel = np.cross(t[:-1], t[1:]) * (2.0 / (h[:-1] + h[1:]))[:, None]
    return vel if closed else np.concatenate([np.zeros((1, 3)), vel, np.zeros((1, 3))])


@BOUNDED
@given(space_curves(), arrays(float, 3, elements=st.floats(-10.0, 10.0)))
def test_binormal_velocity_matches_the_numpy_reference(curve, omega):
    pts = curve.points
    h = chord_lengths(pts, curve.closed)
    d1, d2 = _lagrange_d1_d2(pts, h, curve.closed)
    vel = _unit_chord_binormal(pts, h, curve.closed)
    # d1 keeps the derivative path's bits; at an open end the velocity is 0
    speed2 = np.sum(d1 * d1, axis=1)
    kappa = np.linalg.norm(vel, axis=1) / (speed2 * np.sqrt(speed2))
    kb = np.cross(d1, d2) / np.linalg.norm(d1, axis=1)[:, None] ** 3
    residual = np.linalg.norm(np.cross(np.broadcast_to(omega, pts.shape), pts) - kb,
                              axis=1)

    got_h, got_vel, got_kappa = _velocity(pts, curve.closed)
    assert_same_bits(got_h, h)
    assert got_vel.T.flags.c_contiguous
    assert_same_bits(got_vel, vel)
    assert_same_bits(got_kappa, kappa)
    assert_same_bits(binormal_velocity(curve), vel)
    assert_same_bits(rotation_residual(curve, omega), residual)


def _full_stencil_binormal(pts, closed):
    # d1 x d2 from the whole derivative path (Newton ends included), zeroed
    # at the pinned ends
    d1, d2 = _lagrange_d1_d2(pts, chord_lengths(pts, closed), closed)
    vel = np.cross(d1, d2)
    if not closed:
        vel[[0, -1]] = 0.0
    return vel


def _rk4(f, pts, dt):
    k1 = f(pts)
    k2 = f(pts + 0.5 * dt * k1)
    k3 = f(pts + 0.5 * dt * k2)
    k4 = f(pts + dt * k3)
    return pts + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _unit_chord_rk4(pts, closed, dt):
    return _rk4(lambda p: _unit_chord_binormal(p, chord_lengths(p, closed), closed),
                pts, dt)


def _full_stencil_rk4(pts, closed, dt):
    return _rk4(lambda p: _full_stencil_binormal(p, closed), pts, dt)


@BOUNDED
@given(space_curves(), st.floats(0.01, 0.99))
def test_binormal_rk4_step_matches_the_full_stencil_reference(curve, frac):
    # the full stencil's interior d1 x d2, in the closed form the kernel uses
    pts, closed = curve.points, curve.closed
    h = chord_lengths(pts, closed)
    dt = frac * STABILITY_FACTOR * h.min() ** 2
    got_h, vel, _ = _velocity(pts, closed)
    assert_same_bits(got_h, h)
    got = vfe._step(pts, h, vel, closed, dt, None)
    assert got.T.flags.c_contiguous
    assert_same_bits(got, _unit_chord_rk4(pts, closed, dt))


def _three_binormal_steps(curve, frac):
    pts, closed = curve.points, curve.closed
    dt = frac * STABILITY_FACTOR * chord_lengths(pts, closed).min() ** 2
    traj = vfe.evolve(curve, StepOptions(stop_time=1.0, dt=dt, max_steps=3,
                                         record_every=1))
    return traj, dt


@BOUNDED
@given(smooth_curves(dim=3), st.floats(0.01, 0.99))
def test_binormal_runs_match_the_full_stencil_reference(curve, frac):
    # smooth curves keep the singularity guard quiet for the three steps
    traj, dt = _three_binormal_steps(curve, frac)
    want = [curve.points]
    for _ in range(3):
        want.append(_unit_chord_rk4(want[-1], curve.closed, dt))
    assert traj.stop_reason == "max-steps"
    assert len(traj.frames) == len(want)
    for frame, points in zip(traj.frames, want):
        assert_same_bits(frame.points, points)


# the closed form 2 (t- x t+)/(h- + h+) is the stencil's d1 x d2 exactly, so
# it differs from np.cross(d1, d2) by rounding alone


@BOUNDED
@given(space_curves())
def test_binormal_velocity_is_the_full_stencil_cross_product(curve):
    pts, closed = curve.points, curve.closed
    h = chord_lengths(pts, closed)
    d1 = _lagrange_d1_d2(pts, h, closed)[0]
    want = _full_stencil_binormal(pts, closed)
    kappa = np.linalg.norm(want, axis=1) / np.linalg.norm(d1, axis=1) ** 3
    bound = ROUND_TRIP * np.abs(want).max()
    assert np.abs(binormal_velocity(curve) - want).max() <= bound
    got_h, got_vel, got_kappa = _velocity(pts, closed)
    assert_same_bits(got_h, h)
    assert np.abs(got_vel - want).max() <= bound
    assert np.abs(got_kappa - kappa).max() <= ROUND_TRIP * kappa.max()


@BOUNDED
@given(space_curves(), st.floats(0.01, 0.99))
def test_binormal_runs_agree_with_the_full_stencil_cross_product(curve, frac):
    traj, dt = _three_binormal_steps(curve, frac)
    bound = ROUND_TRIP * np.abs(_full_stencil_binormal(curve.points, curve.closed)).max()
    want = curve.points
    for k, frame in enumerate(traj.frames):
        assert traj.times[k] == k * dt
        assert np.abs(frame.points - want).max() <= bound
        want = _full_stencil_rk4(want, curve.closed, dt)
    assert len(traj.frames) == 4 or traj.stop_reason == "approaching-singularity"


def _per_step_nlcse(psi, dt, opening=True, closing=0.25j):
    # one Strang split step written out: scipy's solve_banded on the
    # clamped Crank-Nicolson bands, and a validated FilamentFunction per step.
    # Merged steps skip the opening half-step and close with a phase of
    # 0.5j * dt, the closing half of this step and the opening half of the next
    ds, n, gauge = psi.grid_step, psi.n, psi.gauge_A
    vals = psi.values
    if opening:
        vals = vals * np.exp(0.25j * dt * (np.abs(vals) ** 2 + gauge))
    if psi.periodic:
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=ds)
        vals = np.fft.ifft(np.exp(-1j * k**2 * dt) * np.fft.fft(vals))
    else:
        c = 1j * dt / (2.0 * ds**2)
        ab = np.zeros((3, n), dtype=complex)
        ab[1, 1:-1] = 1.0 + 2.0 * c
        ab[1, 0] = ab[1, -1] = 1.0
        ab[0, 2:] = -c
        ab[2, :-2] = -c
        rhs = vals.copy()
        rhs[1:-1] = vals[1:-1] + c * (vals[2:] - 2.0 * vals[1:-1] + vals[:-2])
        vals = solve_banded((1, 1), ab, rhs)
    vals = vals * np.exp(closing * dt * (np.abs(vals) ** 2 + gauge))
    return FilamentFunction(psi.grid_start, ds, vals, gauge, psi.time + dt, psi.periodic)


def nlcse_runs(fracs):
    # values, periodic, ds, dt as a fraction of 10 ds^2, gauge, time, steps
    return given(
        st.integers(8, 128).flatmap(lambda n: arrays(
            complex, n, elements=st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                                    allow_infinity=False))),
        st.booleans(), st.floats(0.05, 0.5), fracs,
        st.floats(-2.0, 2.0), st.floats(0.0, 5.0), st.integers(1, 6))


@BOUNDED
@nlcse_runs(st.floats(0.01, 1.0))
def test_nlcse_evolve_matches_the_per_step_reference(values, periodic, ds, frac,
                                                     gauge, time, steps):
    # frac <= 1 keeps dt within the clamped mode's 10 ds^2 warning bound
    psi = FilamentFunction(-1.0, ds, values, gauge, time, periodic)
    dt = frac * 10.0 * ds**2
    want = psi
    for k in range(steps):
        want = _per_step_nlcse(want, dt, opening=k == 0,
                               closing=0.25j if k == steps - 1 else 0.5j)
    got = nlcse_evolve(psi, dt, steps)
    assert_same_bits(got.values, want.values)
    assert got.time == want.time
    assert (got.grid_start, got.grid_step, got.gauge_A, got.periodic) == (
        -1.0, ds, gauge, periodic)
    assert_same_bits(nlcse_step(psi, dt).values, _per_step_nlcse(psi, dt).values)


@BOUNDED
@nlcse_runs(st.floats(0.001, 0.05))
def test_merged_nlcse_evolve_agrees_with_unmerged_steps(values, periodic, ds, frac,
                                                        gauge, time, steps):
    # merging two half-step phases changes psi by rounding alone.  Up to
    # dt = 10 ds^2 these rough values amplify one rounding to 1e-6 within six
    # steps, in the unmerged loop alone, so the steps stay within ds^2 / 2
    psi = FilamentFunction(-1.0, ds, values, gauge, time, periodic)
    dt = frac * 10.0 * ds**2
    want = psi
    for _ in range(steps):
        want = _per_step_nlcse(want, dt)
    got = nlcse_evolve(psi, dt, steps)
    assert np.abs(got.values - want.values).max() <= 1e-12
    assert got.time == want.time


def test_long_filament_runs_match_the_plain_references():
    # fifty steps whose state goes round the driver each time, on the kink
    # the filament benchmark evolves and on a closed ring with torsion, and
    # 200 clamped NLS steps
    kink, _ = hasimoto_soliton(HasimotoSolitonSpec(1.0, 0.5), 0.0,
                               np.linspace(-10.0, 10.0, 512))
    th = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    ring = SampledCurve(3, True, np.column_stack(
        [np.cos(th) + 0.1 * np.cos(3 * th), np.sin(th) + 0.1 * np.sin(2 * th),
         0.2 * np.sin(3 * th)]))
    for curve, dt in [(kink, 1e-5), (ring, 1e-3)]:
        traj = vfe.evolve(curve, StepOptions(stop_time=1.0, dt=dt, max_steps=50,
                                             record_every=10, resample_every=10**9))
        assert (traj.stop_reason, len(traj.frames)) == ("max-steps", 6)
        want = curve.points
        for frame in traj.frames:
            assert_same_bits(frame.points, want)
            for _ in range(10):
                want = _unit_chord_rk4(want, curve.closed, dt)

    psi = hasimoto_soliton_filament(HasimotoSolitonSpec(1.0, 0.5), 0.0,
                                    np.linspace(-10.0, 10.0, 512))
    want = psi
    for k in range(200):
        want = _per_step_nlcse(want, 1e-3, opening=k == 0,
                               closing=0.25j if k == 199 else 0.5j)
    got = nlcse_evolve(psi, 1e-3, 200)
    assert_same_bits(got.values, want.values)
    assert got.time == want.time
