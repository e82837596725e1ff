from __future__ import annotations

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
# (numpy 2.4, scipy 1.17)
@pytest.mark.parametrize("args, s_range, n, solves, digest", [
    # symmetric: both halves at once
    ((0.8, -0.5, 0.9, 0.1), (-5.0, 5.0), 1024, 1, "61c7e1120975fe5b"),
    # then the backward half alone
    ((0.0, -1e9, 0.0, 5e7), (-1.0, 1.0), 1024, 2, "947a778e2289cee1"),
    # then the longer half alone
    ((0.3, -0.6, 0.9, 0.1), (-10.0, 3.0), 1024, 2, "01b30a6b5ea92e1e"),
    # one-sided
    ((0.3, -0.6, 0.9, 0.1), (0.5, 5.0), 1024, 1, "cf2b36c9bd5f9330"),
    # samples at s = -1 and s = 1, both ends of the joint solve; the forward
    # half's continuation gives s = 1
    ((0.3, -0.6, 0.9, 0.1), (-1.0, 3.0), 17, 2, "cd102db3e31cf830"),
], ids=["symmetric", "one-escapes", "asymmetric", "one-sided", "sample-at-the-joint-end"])
def test_profile_solves_per_member(monkeypatch, args, s_range, n, solves, digest):
    calls = []
    solve = csf_solitons._solve_from_origin

    def counted(*a, **kwargs):
        calls.append(a)
        return solve(*a, **kwargs)

    monkeypatch.setattr(csf_solitons, "_solve_from_origin", counted)
    profile = integrate_profile(CsfSolitonSpec(*args, s_range=s_range, n=n))
    assert len(calls) == solves
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

    monkeypatch.setattr(csf_solitons, "_solve_from_origin", fail)
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
    # a solve that fails stops early, so its events need not hold the two
    # radius minima of a profile that closes
    import scipy.integrate
    solve_ivp = scipy.integrate.solve_ivp

    def failed(fun, t_span, y0, **kwargs):
        sol = solve_ivp(fun, (t_span[0], t_span[0] + 1.0), y0, **kwargs)
        sol.status, sol.message = -1, "Required step size is less than spacing between numbers."
        return sol

    monkeypatch.setattr(scipy.integrate, "solve_ivp", failed)
    with pytest.raises(CurveFlowError) as exc:
        detect_closure(0.0, -1.0, AL_23_X0)
    assert exc.value.token == "profile-solve-failed"


@pytest.mark.parametrize("A, B, x0, y0", [
    (float("nan"), -1.0, 1.0, 0.0),
    (float("inf"), -1.0, 1.0, 0.0),
    (0.5, float("nan"), 1.0, 0.0),
    (0.5, -1.0, float("nan"), 0.0),
    (0.5, -1.0, 1.0, -float("inf")),
], ids=["nan-A", "inf-A", "nan-B", "nan-x0", "inf-y0"])
def test_non_finite_parameters_are_rejected_before_integrating(monkeypatch, A, B, x0, y0):
    # DOP853 shrinks its step without end on a NaN right-hand side, so an
    # unchecked parameter would hang instead of failing this test
    def fail(*args, **kwargs):
        raise AssertionError("integrated a non-finite profile")

    monkeypatch.setattr(csf_solitons, "_solve_from_origin", fail)
    with pytest.raises(ValueError):
        CsfSolitonSpec(A, B, x0, y0)
    with pytest.raises(ValueError):
        detect_closure(A, B, x0, y0)


def _reference_profile(spec: CsfSolitonSpec, s: np.ndarray) -> np.ndarray:
    rhs = lambda _s, u: (u[0] * u[1] + spec.A, -u[0] ** 2 - spec.B, u[0])
    out = np.empty((3, s.size))
    for side, end in ((s >= 0, s.max()), (s < 0, s.min())):
        sol = solve_ivp(rhs, (0.0, end), [spec.x0, spec.y0, 0.0], method="DOP853",
                        rtol=1e-13, atol=1e-13, dense_output=True)
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


# the asymmetric range runs the joint solve and then the longer half alone;
# the one-sided ranges take one solve from s = 0
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
    or below it, or a member of the B = -1e9 escape family, whose y runs
    past the escape limit within |s| < 0.2 on one side or both."""
    kind = draw(st.sampled_from(("symmetric", "straddling", "above", "below", "escape")))
    n = draw(st.integers(16, 1200))
    if kind == "escape":
        s_range = (-draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0)))
        return kind, CsfSolitonSpec(0.0, -1e9, 0.0, draw(st.floats(-9e7, 9e7)), s_range, n)
    A, B, x0 = (draw(st.floats(-1.5, 1.5)) for _ in range(3))
    length = draw(st.floats(0.5, 10.0))
    start = draw(st.floats(0.0, 5.0))
    s_range = {"symmetric": (-length, length),
               "straddling": (-length, draw(st.floats(0.1, 10.0))),
               "above": (start, start + length),
               "below": (-start - length, -start)}[kind]
    return kind, CsfSolitonSpec(A, B, x0, draw(st.floats(-1.0, 1.0)), s_range, n)


def _checked_dense_values(ascending: list):
    """``_dense_values`` that also asserts the bits of scipy's dense output
    and records whether each solve it evaluates runs up in s."""
    dense_values = csf_solitons._dense_values

    def checked(sol, t):
        got = dense_values(sol, t)
        assert np.array_equal(got, sol.sol(t))
        ascending.append(bool(sol.sol.ts[-1] > sol.sol.ts[0]))
        return got

    return mock.patch.object(csf_solitons, "_dense_values", checked)


# DOP853's F, h, t_old and y_old are scipy attributes without documentation:
# a scipy that renames or reshapes them fails here, not in the numbers
@settings(max_examples=80, deadline=None)
@given(ranged_specs())
@example(("escape", CsfSolitonSpec(0.0, -1e9, 0.0, 5e7, (-1.0, 1.0), 64)))
@example(("escape", CsfSolitonSpec(0.0, -1e9, 0.0, -5e7, (-1.0, 1.0), 64)))
def test_one_pass_evaluation_has_the_bits_of_the_dense_output(case):
    kind, spec = case
    ascending = []
    with _checked_dense_values(ascending):
        try:
            profile = integrate_profile(spec)
        except CurveFlowError as exc:
            # an escape before the range starts
            assert exc.token == "profile-escape" and kind == "escape"
            return
    # a range below s = 0 is one descending solve, one above it or evenly
    # across it one ascending solve, and a longer backward half continues
    # by a descending solve
    a, b = spec.s_range
    if kind == "below":
        assert ascending == [False]
    elif kind in ("above", "symmetric"):
        assert ascending == [True]
    elif kind == "straddling" and not profile.escaped:
        assert ascending == [True] + [b > -a] * (-a != b)


@settings(max_examples=20, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-1.5, -0.2), st.floats(0.2, 1.5),
       st.floats(-0.5, 0.5))
@example(0.0, -1.0, AL_23_X0, 0.0)
def test_closure_grid_has_the_bits_of_the_dense_output(A, B, x0, y0):
    ascending = []
    with _checked_dense_values(ascending):
        closure = detect_closure(A, B, x0, y0)
    # the fine grid between two radius minima is evaluated once, up in s
    assert ascending == ([True] if np.isfinite(closure.delta_phi) else [])


def test_a_profile_solve_is_refused_past_its_call_budget(monkeypatch):
    # a budget of the calls a solve takes keeps its bits; one call fewer fails it
    spec = CsfSolitonSpec(0.8, -0.5, 0.9, 0.1, s_range=(-5.0, 5.0), n=256)
    calls = csf_solitons._solve_from_origin(0.8, -0.5, [0.9, 0.1, 0.0] * 2, 5.0).nfev
    want = integrate_profile(spec)
    monkeypatch.setattr(csf_solitons, "MAX_RHS_CALLS", calls)
    got = integrate_profile(spec)
    for name in ("s", "x", "y", "theta"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    monkeypatch.setattr(csf_solitons, "MAX_RHS_CALLS", calls - 1)
    with pytest.raises(CurveFlowError) as exc:
        integrate_profile(spec)
    assert exc.value.token == "profile-solve-failed"
    assert f"{calls - 1} right-hand-side calls" in str(exc.value)


@pytest.mark.parametrize("x0, y0", [(2e8, 0.0), (0.9, -1e100)])
def test_a_start_past_the_escape_limit_is_refused_before_solving(x0, y0):
    # the escape event never crosses zero there, so the solve would run to
    # its budget
    for compute in (lambda: integrate_profile(CsfSolitonSpec(0.5, -0.5, x0, y0)),
                    lambda: detect_closure(0.5, -0.5, x0, y0)):
        with pytest.raises(CurveFlowError) as exc:
            compute()
        assert exc.value.token == "profile-solve-failed"
        assert "past the escape limit" in str(exc.value)
