from __future__ import annotations

import bisect
import hashlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad, solve_ivp

from conftest import circle2
from curveflow import csf_solitons
from curveflow.csf_solitons import (
    CsfSolitonSpec,
    abresch_langer_partner,
    apply_similarity,
    classify,
    detect_closure,
    grim_reaper,
    integrate_profile,
    reconstruct_curve,
    scaling_functions,
    soliton_residual,
)
from curveflow.errors import CurveFlowError
from curveflow.geometry import total_length

# one closed Abresch-Langer member: at (A, B) = (0, -1) this starting
# radius makes the angle advance between radius minima exactly 2 pi * 2/3
AL_23_X0 = 0.31318043363295145


def test_classify_sign_dispatch():
    assert classify(0.0, 0.0) == "stationary-line"
    assert classify(1.0, 0.0) == "rotating"
    assert classify(-1.0, 0.0) == "rotating"
    assert classify(0.0, -1.0) == "shrinking"
    assert classify(0.0, 2.0) == "expanding"
    assert classify(0.5, -1.0) == "rotating-shrinking"
    assert classify(0.5, 1.0) == "rotating-expanding"


def test_spec_validation():
    with pytest.raises(ValueError):
        CsfSolitonSpec(0.0, -1.0, 1.0, s_range=(2.0, 1.0))
    with pytest.raises(ValueError):
        CsfSolitonSpec(0.0, -1.0, 1.0, n=4)
    with pytest.raises(ValueError):
        CsfSolitonSpec(0.5, -1.0, 1.0, 0.0, n=16.5)


def test_unit_circle_is_the_shrinking_fixed_point():
    profile = integrate_profile(CsfSolitonSpec(0.0, -1.0, 1.0, 0.0))
    curve = reconstruct_curve(profile, 0.0, -1.0)
    radii = np.linalg.norm(curve.points, axis=1)
    assert np.abs(radii - 1.0).max() < 1e-8
    assert not profile.escaped
    # arclength parametrization comes out of the construction; the
    # inscribed polyline undershoots by (kappa ds)^2 / 24 relative
    assert total_length(curve) == pytest.approx(
        profile.s[-1] - profile.s[0], rel=1e-4)


def test_profile_curve_satisfies_the_shape_equation():
    for A, B in ((0.0, -1.0), (0.4, -0.7), (0.3, 0.8), (-0.6, -0.5)):
        spec = CsfSolitonSpec(A, B, 0.9, 0.1, s_range=(-6.0, 6.0), n=1024)
        curve = reconstruct_curve(integrate_profile(spec), A, B)
        assert soliton_residual(curve, A, B).max() < 1e-3


def test_circle_residual_values():
    circ = circle2(512)
    assert soliton_residual(circ, 0.0, -1.0).max() < 1e-4
    # against the expanding equation the unit circle misses by exactly 2
    assert np.abs(soliton_residual(circ, 0.0, 1.0) - 2.0).max() < 1e-4


def test_residual_is_rotation_invariant():
    th = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    base = circle2(512)
    rot = base.with_points(base.points @ np.array(
        [[np.cos(0.5), np.sin(0.5)], [-np.sin(0.5), np.cos(0.5)]]))
    d = soliton_residual(rot, 0.0, -1.0) - soliton_residual(base, 0.0, -1.0)
    assert np.abs(d).max() < 1e-9


def test_profile_escape_truncates_or_fails():
    # with A = x0 = y0 = 0, x stays 0 and y = -B s, which reaches
    # ESCAPE_LIMIT = 1e8 at |s| = 0.1 for B = -1e9
    profile = integrate_profile(CsfSolitonSpec(0.0, -1e9, 0.0, 0.0, s_range=(-1.0, 1.0)))
    assert profile.escaped
    assert profile.s[0] == pytest.approx(-0.1, rel=1e-6)
    assert profile.s[-1] == pytest.approx(0.1, rel=1e-6)
    assert np.all(profile.x == 0.0)
    np.testing.assert_allclose(profile.y, 1e9 * profile.s, rtol=1e-9, atol=1e-3)
    with pytest.raises(CurveFlowError) as err:
        integrate_profile(CsfSolitonSpec(0.0, -1e9, 0.0, 0.0, s_range=(0.5, 1.0)))
    assert err.value.token == "profile-escape"


@pytest.mark.parametrize("y0, s_range, ends", [
    (5e7, (-0.1, 1.0), (-0.1, 0.05)),
    (5e7, (-1.0, 1.0), (-0.15, 0.05)),
    (-5e7, (-1.0, 1.0), (-0.05, 0.15)),     # the backward half escapes first
])
def test_one_escaping_half_leaves_the_other_to_continue(y0, s_range, ends):
    # A = x0 = 0 keeps x = 0 and y = y0 + 1e9 s; at y0 = 5e7 that reaches
    # +1e8 at s = 0.05 but -1e8 only at s = -0.15
    profile = integrate_profile(CsfSolitonSpec(0.0, -1e9, 0.0, y0, s_range=s_range))
    assert profile.escaped
    assert profile.s[0] == pytest.approx(ends[0], rel=1e-6)
    assert profile.s[-1] == pytest.approx(ends[1], rel=1e-6)
    assert np.all(profile.x == 0.0)
    np.testing.assert_allclose(profile.y, y0 + 1e9 * profile.s, rtol=1e-9, atol=1e-3)


# the digest pins the bits of the assembled profile, boundary samples
# included: the first 16 hex digits of the SHA-256 of s, x, y and theta
# (numpy 2.4); solves counts the Taylor solves of the forward and the
# backward half, each from s = 0.  The ids keep the names the rows had when
# both halves were one joint DOP853 solve, whose ties two rows pinned
@pytest.mark.parametrize("args, s_range, n, solves, digest", [
    ((0.8, -0.5, 0.9, 0.1), (-5.0, 5.0), 1024, (1, 1), "75a5b2e04b889b97"),
    # the forward half escapes at s = 0.05, the backward one at s = -0.15
    ((0.0, -1e9, 0.0, 5e7), (-1.0, 1.0), 1024, (1, 1), "07bcacc78734f143"),
    ((0.3, -0.6, 0.9, 0.1), (-10.0, 3.0), 1024, (1, 1), "c86abb745bec67e0"),
    # one-sided: the forward half alone, evaluated from s = 0.5
    ((0.3, -0.6, 0.9, 0.1), (0.5, 5.0), 1024, (1, 0), "9148ba0d676575bb"),
    # samples at s = -1, 0 and 1; s = 0 belongs to the forward half
    ((0.3, -0.6, 0.9, 0.1), (-1.0, 3.0), 17, (1, 1), "416ee3298ef97c8d"),
    # both halves escape at |s| = 0.1, where y = 1e9 s is one polynomial step
    ((0.0, -1e9, 0.0, 0.0), (-1.0, 1.0), 1024, (1, 1), "342640d0dd047556"),
    # and at |s| = 0.2273
    ((0.0, -439954064.00135213, 0.0, 0.0), (-1.0, 1.0), 1024, (1, 1), "02608dcbd0ba8b4d"),
], ids=["symmetric", "one-escapes", "asymmetric", "one-sided", "sample-at-the-joint-end",
        "both-escape", "tie-past-the-limit"])
def test_profile_solves_per_member(monkeypatch, args, s_range, n, solves, digest):
    signs = []
    steps = csf_solitons._taylor_steps

    def counted(*a):
        signs.append(a[-1])
        return steps(*a)

    monkeypatch.setattr(csf_solitons, "_taylor_steps", counted)
    profile = integrate_profile(CsfSolitonSpec(*args, s_range=s_range, n=n))
    assert (signs.count(1.0), signs.count(-1.0)) == solves
    assert len(signs) == sum(solves)
    values = np.stack([profile.s, profile.x, profile.y, profile.theta])
    assert hashlib.sha256(values.tobytes()).hexdigest()[:16] == digest


def test_scaling_functions():
    assert scaling_functions(0.7, 0.0, 2.0) == (1.4, 1.0)   # pure rotation
    f, g = scaling_functions(0.5, -1.0, 0.3)
    assert g == pytest.approx(np.sqrt(0.4))
    assert f == pytest.approx(-0.25 * np.log(0.4))
    with pytest.raises(CurveFlowError) as err:
        scaling_functions(0.0, -1.0, 0.6)      # past t = 1/2
    assert err.value.token == "past-singular-time"


def test_similarity_motion_of_the_circle():
    c = circle2(256)
    moved = apply_similarity(c, 0.0, -1.0, 0.3)
    r = np.linalg.norm(moved.points, axis=1)
    assert np.abs(r - np.sqrt(0.4)).max() < 1e-12


def test_grim_reaper():
    xs = np.linspace(-1.5, 1.5, 2048)
    gr = grim_reaper(0.0, xs)
    oracle, _ = quad(lambda x: 1.0 / np.cos(x), -1.5, 1.5)
    assert total_length(gr) == pytest.approx(oracle, rel=1e-5)
    lifted = grim_reaper(2.5, xs)
    assert np.allclose(lifted.points[:, 1] - gr.points[:, 1], 2.5)
    with pytest.raises(ValueError):
        grim_reaper(0.0, np.linspace(-2.0, 2.0, 64))


def test_abresch_langer_partner_back_substitution():
    rng = np.random.default_rng(11)
    weighted = lambda r, B: r * np.exp(B * r * r / 2.0)
    for _ in range(50):
        B = -rng.uniform(0.1, 3.0)
        r_star = 1.0 / np.sqrt(-B)
        r_min = rng.uniform(0.05, 1.0) * r_star
        r_out = abresch_langer_partner(B, r_min)
        assert r_out >= r_star
        assert abs(weighted(r_out, B) - weighted(r_min, B)) < 1e-12


def test_abresch_langer_partner_edge_cases():
    assert abresch_langer_partner(-1.0, 1.0) == 1.0       # r_min = r_star
    with pytest.raises(CurveFlowError):
        abresch_langer_partner(0.5, 0.5)
    with pytest.raises(CurveFlowError):
        abresch_langer_partner(-1.0, 1.5)                 # beyond r_star


def test_closure_detection_finds_the_two_three_member():
    c = detect_closure(0.0, -1.0, AL_23_X0)
    assert c.closed and (c.p, c.q) == (2, 3)
    assert c.delta_phi / (2 * np.pi) == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_generic_shrinking_member_stays_in_the_angle_band():
    for x0 in (0.2, 0.5, 0.8):
        c = detect_closure(0.0, -1.0, x0)
        ratio = c.delta_phi / (2 * np.pi)
        assert 0.5 < ratio < 1.0 / np.sqrt(2.0)
        if not c.closed:
            assert c.p is None and c.q is None


@pytest.mark.parametrize("A, B", [(0.5, 1.0), (-1.0, 0.0)])
def test_non_negative_dilation_returns_open_without_integrating(monkeypatch, A, B):
    # for B >= 0, A x - B y crosses zero at most once, so no profile has the
    # two radius minima a closure needs; the stiff solve would find nothing
    def fail(*args, **kwargs):
        raise AssertionError("integrated a profile that cannot close")

    monkeypatch.setattr(csf_solitons, "_taylor_steps", fail)
    c = detect_closure(A, B, 1.0)
    assert (c.closed, c.p, c.q) == (False, None, None)
    assert np.isnan(c.delta_phi) and np.isnan(c.period)


@pytest.mark.parametrize("A, B, x0, y0, closed", [
    (0.0, -1.0, 1.0, 0.0, True),
    (0.5, -1.0, 1.0, -0.5, True),
    (0.0, -1.0, 0.0, 0.0, False),
    (0.0, -0.01, 0.1, 0.0, True),
], ids=["unit-circle", "rotating-circle", "straight-line", "rounded-circle"])
def test_closure_of_a_profile_without_two_radius_minima(A, B, x0, y0, closed):
    # a fixed point of the profile system is a circle of curvature x0, whose
    # radius is constant: one turn is its excursion.  The line through the
    # origin has |X| = |s|, whose one minimum is its start.  0.1 * 0.1 - 0.01
    # is 1.7e-18, not 0: that start is the circle up to rounding
    c = detect_closure(A, B, x0, y0)
    if closed:
        assert (c.closed, c.p, c.q) == (True, 1, 1)
        assert (c.delta_phi, c.period) == (2.0 * np.pi, 2.0 * np.pi / abs(x0))
    else:
        assert (c.closed, c.p, c.q) == (False, None, None)
        assert np.isnan(c.delta_phi) and np.isnan(c.period)


def test_detect_closure_refuses_a_failed_solve(monkeypatch):
    # a solve that fails stops early, so its steps need not hold the two
    # radius minima of a profile that closes: here the Taylor steps stop at
    # their budget, one step short of the second minimum, or meet a
    # coefficient past the largest double
    steps = detect_closure(0.0, -1.0, AL_23_X0).steps
    monkeypatch.setattr(csf_solitons, "MAX_STEPS", steps - 1)
    for args in ((0.0, -1.0, AL_23_X0), (1e306, -0.5, 0.9, 0.1)):
        with pytest.raises(CurveFlowError) as exc:
            detect_closure(*args)
        assert exc.value.token == "profile-solve-failed"


@pytest.mark.parametrize("A, B, x0, y0", [
    (float("nan"), -1.0, 1.0, 0.0),
    (float("inf"), -1.0, 1.0, 0.0),
    (0.5, float("nan"), 1.0, 0.0),
    (0.5, -1.0, float("nan"), 0.0),
    (0.5, -1.0, 1.0, -float("inf")),
], ids=["nan-A", "inf-A", "nan-B", "nan-x0", "inf-y0"])
def test_non_finite_parameters_are_rejected_before_integrating(monkeypatch, A, B, x0, y0):
    # a NaN parameter makes every Taylor coefficient NaN, so an unchecked
    # parameter would be refused only inside the solve
    def fail(*args, **kwargs):
        raise AssertionError("integrated a non-finite profile")

    monkeypatch.setattr(csf_solitons, "_taylor_steps", fail)
    with pytest.raises(ValueError):
        CsfSolitonSpec(A, B, x0, y0)
    with pytest.raises(ValueError):
        detect_closure(A, B, x0, y0)


def _reference_profile(spec: CsfSolitonSpec, s: np.ndarray, atol: float = 1e-13,
                       max_step: float = np.inf) -> np.ndarray:
    rhs = lambda _s, u: (u[0] * u[1] + spec.A, -u[0] ** 2 - spec.B, u[0])
    out = np.empty((3, s.size))
    for side, end in ((s >= 0, s.max()), (s < 0, s.min())):
        # DOP853 divides 0 by 0 where its error estimates vanish, as on a
        # profile that is a polynomial of low degree, and then fails
        with np.errstate(invalid="ignore"):
            sol = solve_ivp(rhs, (0.0, end), [spec.x0, spec.y0, 0.0], method="DOP853",
                            rtol=1e-13, atol=atol, dense_output=True, max_step=max_step)
        if not sol.success:
            raise RuntimeError(sol.message)
        out[:, side] = sol.sol(s[side])
    return out


# each bound is the error of the RK45 solver at rtol = atol = 1e-10 that
# integrate_profile used before DOP853, rounded up: a faster integrator may
# not be a less accurate one
@pytest.mark.parametrize("A, B, bound", [
    (0.8, 0.5, 4.3e-10),
    (0.8, -0.5, 7.3e-10),
    (-0.8, 0.5, 3.6e-10),
    (-0.8, -0.5, 4.8e-10),
])
def test_profile_accuracy_against_a_tight_reference(A, B, bound):
    spec = CsfSolitonSpec(A, B, 0.9, 0.1, s_range=(-5.0, 5.0), n=256)
    prof = integrate_profile(spec)
    want = _reference_profile(spec, prof.s)
    assert np.abs(np.vstack([prof.x, prof.y, prof.theta]) - want).max() < bound


# the asymmetric range takes a longer backward half; the one-sided ranges
# take one solve from s = 0
@pytest.mark.parametrize("s_range", [(-10.0, 3.0), (0.5, 5.0), (-5.0, -0.5)])
def test_profile_accuracy_on_asymmetric_and_one_sided_ranges(s_range):
    spec = CsfSolitonSpec(0.3, -0.6, 0.9, 0.1, s_range=s_range, n=256)
    prof = integrate_profile(spec)
    assert (prof.s[0], prof.s[-1]) == s_range
    # the reference solves both sides of s = 0, so give it samples on each
    want = _reference_profile(spec, np.append(prof.s, -prof.s))[:, :prof.s.size]
    assert np.abs(np.vstack([prof.x, prof.y, prof.theta]) - want).max() < 3.6e-10


@st.composite
def ranged_specs(draw):
    """A spec and its range kind: across s = 0, evenly or not, wholly above
    or below it, or a member of the escape family A = x0 = 0 with B in
    -10^[8.5, 12], whose y = y0 - B s runs past the escape limit within
    |s| < 0.61 on one side or both; at y0 = 0, drawn half the time, both
    halves reach it at one |s|."""
    kind = draw(st.sampled_from(("symmetric", "straddling", "above", "below", "escape")))
    n = draw(st.integers(16, 1200))
    if kind == "escape":
        s_range = (-draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0)))
        B = -10.0 ** draw(st.floats(8.5, 12.0))
        y0 = draw(st.one_of(st.just(0.0), st.floats(-9e7, 9e7)))
        return kind, CsfSolitonSpec(0.0, B, 0.0, y0, s_range, n)
    A, B, x0 = (draw(st.floats(-1.5, 1.5)) for _ in range(3))
    length = draw(st.floats(0.5, 10.0))
    start = draw(st.floats(0.0, 5.0))
    s_range = {"symmetric": (-length, length),
               "straddling": (-length, draw(st.floats(0.1, 10.0))),
               "above": (start, start + length),
               "below": (-start - length, -start)}[kind]
    return kind, CsfSolitonSpec(A, B, x0, draw(st.floats(-1.0, 1.0)), s_range, n)


# the largest error of a drawn non-escaping profile against the reference,
# relative where the reference passes 1; the DOP853 solve that integrated
# the profiles before the Taylor steps exceeded it on 21 of 300 draws
ACCURACY_BOUND = 3.6e-10


# the reference's dense output is off by up to 5e-10 between steps of more
# than 0.2, so its steps are capped at 0.1; and where x grows from 1e-11 to
# 0.3 an absolute tolerance of 1e-13 leaves it 7e-4 off, so its tolerance is
# relative alone.  So set, it is within 2e-12 of DOP853 at rtol 3e-14 and
# steps of 0.01 on the draws below and on hypothesis's findings
@settings(max_examples=50, deadline=None)
@given(ranged_specs().filter(lambda case: case[0] != "escape"))
@example(("straddling", CsfSolitonSpec(1.1547127013020493, 0.1639941333394226,
                                       0.7092241274477913, -0.5414233717294814,
                                       (-7.024419523904317, 2.8602758688582854), 1028)))
# x grows from a small start by up to 2.6e10: an absolute tolerance in the
# steps, even of 1e-12, leaves it 5e-9 off or more
@example(("symmetric", CsfSolitonSpec(1e-6, -1.0, 0.0, 1.0, (-4.0, 4.0), 16)))
@example(("symmetric", CsfSolitonSpec(2.0**-9, -1.0, 0.0, 0.0, (-4.0, 4.0), 16)))
@example(("symmetric", CsfSolitonSpec(0.0, -1.0, 1e-11, 1.0, (-6.0, 6.0), 16)))
# a subnormal start still takes steps, and so does a start at y = 0 whose
# Taylor coefficients reach 1e60, where TOL * 1e-290 / |c| underflows
@example(("symmetric", CsfSolitonSpec(1.0, 0.0, 5e-324, 0.0, (-1.0, 1.0), 16)))
@example(("symmetric", CsfSolitonSpec(0.5, -1e4, 0.3, 0.0, (-0.01, 0.01), 16)))
def test_drawn_profiles_are_accurate_against_a_tight_reference(case):
    _, spec = case
    try:
        prof = integrate_profile(spec)
    except CurveFlowError as exc:
        assert exc.token == "profile-escape"
        return
    assume(not prof.escaped)
    try:
        want = _reference_profile(spec, np.append(prof.s, -prof.s), atol=1e-30,
                                  max_step=0.1)[:, :prof.s.size]
    except RuntimeError:
        reject()
    error = np.abs(np.vstack([prof.x, prof.y, prof.theta]) - want)
    assert (error <= ACCURACY_BOUND * np.maximum(1.0, np.abs(want))).all()


def _pointwise(steps, r: np.ndarray) -> np.ndarray:
    """Each point's step polynomial, evaluated one point at a time."""
    starts = [step[0] for step in steps]
    out = []
    for t in r.tolist():
        r0, r1, c = steps[bisect.bisect_right(starts, t) - 1]
        assert r0 <= t <= r1
        out.append([polyval(t - r0, ci) for ci in c])
    return np.array(out).T


def _checked_evaluate(sizes: list):
    """``_evaluate`` that also asserts the bits of evaluating each point on
    its own and records how many points each call evaluates."""
    evaluate = csf_solitons._evaluate

    def checked(steps, r):
        got = evaluate(steps, r)
        assert np.array_equal(got, _pointwise(steps, r))
        sizes.append(r.size)
        return got

    return mock.patch.object(csf_solitons, "_evaluate", checked)


@settings(max_examples=80, deadline=None)
@given(ranged_specs())
@example(("escape", CsfSolitonSpec(0.0, -1e9, 0.0, 5e7, (-1.0, 1.0), 64)))
@example(("escape", CsfSolitonSpec(0.0, -1e9, 0.0, -5e7, (-1.0, 1.0), 64)))
def test_one_pass_evaluation_has_the_bits_of_the_dense_output(case):
    kind, spec = case
    sizes = []
    with _checked_evaluate(sizes):
        try:
            profile = integrate_profile(spec)
        except CurveFlowError as exc:
            # an escape before the range starts
            assert exc.token == "profile-escape" and kind == "escape"
            return
    # a range on one side of s = 0 is one half, one across it two; each
    # sample is evaluated once
    assert len(sizes) == (1 if kind in ("above", "below") else 2)
    assert sum(sizes) == profile.s.size == spec.n
    a, b = spec.s_range
    assert profile.steps[0] > 0 if b > 0.0 else profile.steps[0] == 0
    assert profile.steps[1] > 0 if a < 0.0 else profile.steps[1] == 0


def _reference_closure(A, B, x0, y0):
    """The angle advance between the first two radius minima of a tight
    DOP853 solve, as ``detect_closure`` found it before the Taylor steps,
    and the least rate at which A x - B y rises through zero at those two."""
    def minimum(_s, u):
        return A * u[0] - B * u[1]

    def escape(_s, u):
        return max(abs(u[0]), abs(u[1])) - csf_solitons.ESCAPE_LIMIT

    minimum.direction, minimum.terminal, escape.terminal = 1.0, 2, True
    rhs = lambda _s, u: (u[0] * u[1] + A, -u[0] ** 2 - B, u[0])
    sol = solve_ivp(rhs, (0.0, csf_solitons.CLOSURE_MAX_S), [x0, y0, 0.0],
                    method="DOP853", rtol=1e-13, atol=1e-13, dense_output=True,
                    events=(minimum, escape))
    hits = sol.t_events[0]
    if len(hits) < 2:
        return float("nan"), 0.0
    xs, ys, thetas = sol.sol(np.linspace(hits[0], hits[1], 4096))
    args = np.unwrap(np.arctan2(ys, xs))
    x, y = sol.y_events[0][:, :2].T
    rise = A * x * y + A * A + B * x * x + B * B
    return (thetas[-1] - thetas[0]) + (args[-1] - args[0]), rise.min()


# a profile that spirals into the circle's fixed point meets sign changes of
# A x - B y at rounding level, where (A x - B y)' vanishes too, and each
# solver places them differently; only an excursion between minima where
# A x - B y rises faster than 1e-4 is compared by its advance
@settings(max_examples=20, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-1.5, -0.2), st.floats(0.2, 1.5),
       st.floats(-0.5, 0.5))
@example(0.0, -1.0, AL_23_X0, 0.0)
@example(-0.9709274392723735, -0.2868089297069363, 0.311573528412879, 0.34492680147361)
def test_closure_grid_has_the_bits_of_the_dense_output(A, B, x0, y0):
    sizes = []
    with _checked_evaluate(sizes):
        closure = detect_closure(A, B, x0, y0)
    # the fine grid between two radius minima is evaluated once
    assert sizes == ([4096] if np.isfinite(closure.delta_phi) else [])
    delta_phi, rise = _reference_closure(A, B, x0, y0)
    ratio = delta_phi / (2.0 * np.pi)
    frac = Fraction(ratio).limit_denominator(40) if np.isfinite(ratio) else Fraction(0)
    closed = frac.numerator != 0 and abs(ratio - float(frac)) < 1e-6
    want = (True, frac.numerator, frac.denominator) if closed else (False, None, None)
    assert (closure.closed, closure.p, closure.q) == want
    if rise > 1e-4:
        assert closure.delta_phi == pytest.approx(delta_phi, rel=1e-8)


def test_a_profile_solve_is_refused_past_its_call_budget(monkeypatch):
    # a budget of the steps each half takes keeps the profile's bits; one
    # step fewer fails the longer half
    spec = CsfSolitonSpec(0.8, -0.5, 0.9, 0.1, s_range=(-5.0, 5.0), n=256)
    want = integrate_profile(spec)
    steps = max(want.steps)
    monkeypatch.setattr(csf_solitons, "MAX_STEPS", steps)
    got = integrate_profile(spec)
    for name in ("s", "x", "y", "theta"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    monkeypatch.setattr(csf_solitons, "MAX_STEPS", steps - 1)
    with pytest.raises(CurveFlowError) as exc:
        integrate_profile(spec)
    assert exc.value.token == "profile-solve-failed"
    assert f"{steps - 1} steps" in str(exc.value)


@pytest.mark.parametrize("x0, y0", [(2e8, 0.0), (0.9, -1e100)])
def test_a_start_past_the_escape_limit_is_refused_before_solving(x0, y0):
    # no escape can be found from there
    for compute in (lambda: integrate_profile(CsfSolitonSpec(0.5, -0.5, x0, y0)),
                    lambda: detect_closure(0.5, -0.5, x0, y0)):
        with pytest.raises(CurveFlowError) as exc:
            compute()
        assert exc.value.token == "profile-solve-failed"
        assert "past the escape limit" in str(exc.value)
