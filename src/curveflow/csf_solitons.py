"""Self-similar curve shortening solutions from the planar two-parameter ODE.

A curve that evolves by rotation (rate A) and dilation (rate B) has a
profile governed by the autonomous system

    x' = x y + A,      y' = -x^2 - B,      theta' = x,

where x is the curvature, y the tangential support component, and theta
the tangent angle.  The plane curve is recovered from a profile as
X = e^{i theta} (x + i y) / (A - i B), which is arclength-parametrized.
Profiles are integrated with the 8th-order Dormand-Prince pair (DOP853)
at rtol = atol = 1e-11; the two halves of a range about the data at s = 0
are integrated together, as one six-component system in r = |s|.
The module also carries the two classical special cases: the translating
grim reaper graph and the closed shrinkers confined to an annulus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CurveFlowError
from .geometry import SampledCurve, _check_grid, frenet

# |x| or |y| beyond this truncates the profile with the escaped flag set.
ESCAPE_LIMIT = 1e8

# arclength over which detect_closure looks for two radius minima
CLOSURE_MAX_S = 400.0

# right-hand-side calls past which a profile solve is refused: about 6,700
# DOP853 steps of 15 calls (12 stages and 3 for the dense output), 76 times
# the 1,301 calls of the largest solve in the tests, README examples and
# benchmark workloads
MAX_RHS_CALLS = 100_000


def classify(A: float, B: float) -> str:
    """Sign-dispatch on (rotation, dilation) rates: "rotating", "rotating-expanding",
    "rotating-shrinking", "expanding", "shrinking" or "stationary-line"."""
    if A != 0.0:
        if B == 0.0:
            return "rotating"
        return "rotating-expanding" if B > 0 else "rotating-shrinking"
    if B == 0.0:
        return "stationary-line"
    return "expanding" if B > 0 else "shrinking"


def _check_finite(A, B, x0, y0):
    # DOP853 keeps shrinking its step on a non-finite right-hand side
    if not all(map(np.isfinite, (A, B, x0, y0))):
        raise ValueError("A, B, x0 and y0 must be finite")


@dataclass(frozen=True)
class CsfSolitonSpec:
    A: float
    B: float
    x0: float
    y0: float = 0.0
    s_range: tuple[float, float] = (-10.0, 10.0)
    n: int = 1024

    def __post_init__(self):
        _check_finite(self.A, self.B, self.x0, self.y0)
        _check_grid("s_range", self.s_range, self.n)


@dataclass
class SolitonProfile:
    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    escaped: bool = False


def _escape(_s, u):
    # u[-3:] is the backward half of a joint state, else the state itself
    return max(abs(u[0]), abs(u[1]), abs(u[-3]), abs(u[-2])) - ESCAPE_LIMIT


_escape.terminal = True


def _solve_from_origin(A: float, B: float, u0, s_end: float, s0: float = 0.0,
                       events=_escape):
    """The profile from the state u0 at ``s0`` (the origin by default) to ``s_end``.

    u0 is (x, y, theta), or six components for both halves at once: u(r),
    then v(r) = u(-r), which obeys v' = -f(v), over r in [0, s_end].  A solve
    that fails raises, since its dense output and events need not reach s_end,
    and so does one that passes MAX_RHS_CALLS: a stiff member (|B| of 1e9
    makes y' = -x^2 - B a fast oscillator) would take ever shorter steps and
    keep a dense output per step.
    """
    from scipy.integrate import solve_ivp
    # no event stops a solve that starts past the escape limit
    if not _escape(s0, u0) < 0.0:
        raise CurveFlowError("profile-solve-failed", f"the state at s = {s0!r} lies "
                             f"past the escape limit {ESCAPE_LIMIT:g}")
    calls = 0
    over_budget = CurveFlowError(
        "profile-solve-failed",
        f"the profile solve passed {MAX_RHS_CALLS} right-hand-side calls before s = {s_end!r}")

    # the state is read once as Python floats: the same IEEE operations as on
    # numpy scalars, without a scalar object per operation
    def rhs(_s, u):
        nonlocal calls
        calls += 1
        if calls > MAX_RHS_CALLS:
            raise over_budget
        x, y, _ = u.tolist()
        return x * y + A, -x * x - B, x

    def joint_rhs(_r, u):
        nonlocal calls
        calls += 1
        if calls > MAX_RHS_CALLS:
            raise over_budget
        x, y, _, X, Y, _ = u.tolist()
        return x * y + A, -x * x - B, x, -X * Y - A, X * X + B, -X

    # a step past the largest double fails the solve, and an event's root
    # search on a dense output past it raises
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            sol = solve_ivp(
                rhs if len(u0) == 3 else joint_rhs,
                (s0, s_end),
                u0,
                method="DOP853",
                rtol=1e-11,
                atol=1e-11,
                dense_output=True,
                events=events,
            )
        except ValueError as exc:
            raise CurveFlowError("profile-solve-failed", str(exc)) from exc
    if sol.status == -1:
        raise CurveFlowError("profile-solve-failed", sol.message)
    return sol


def _dense_values(sol, t: np.ndarray) -> np.ndarray:
    """``sol.sol(t)`` for a DOP853 solve, evaluated at all of t in one pass.

    Each point takes the step that scipy's ``OdeSolution`` assigns it, and
    its value comes from scipy's own recurrence over that step's ``F`` rows,
    so it has the bits of ``sol.sol(t)``.  ``F``, ``h``, ``t_old`` and
    ``y_old`` are attributes that scipy sets on each ``Dop853DenseOutput``
    without documenting them; a test pins the bits.
    """
    ts, steps = sol.sol.ts, sol.sol.interpolants
    last = len(steps) - 1
    if ts[-1] >= ts[0]:
        k = np.clip(np.searchsorted(ts, t, side="left") - 1, 0, last)
    else:
        k = last - np.clip(np.searchsorted(ts[::-1], t, side="right") - 1, 0, last)
    t_old = np.array([step.t_old for step in steps])
    h = np.array([step.h for step in steps])
    x = ((t - t_old[k]) / h[k])[:, None]
    # F[j] holds row j of every step's coefficients
    F = np.stack([step.F for step in steps], axis=1)
    y = np.zeros((t.size, F.shape[2]))
    for j, f in enumerate(F[::-1]):
        y += f[k]
        y *= x if j % 2 == 0 else 1 - x
    y += np.array([step.y_old for step in steps])[k]
    return y.T


def integrate_profile(spec: CsfSolitonSpec) -> SolitonProfile:
    """Integrate the profile system over s_range (initial data sits at s=0).

    When s_range straddles 0, both halves are one joint solve over
    |s| <= min(b, -a); the longer half then continues alone to its end,
    and if one half escapes, the other continues alone from there.  A
    one-sided range takes one solve from s = 0.  The range is truncated
    where the state escapes ESCAPE_LIMIT, with the escaped flag set.
    """
    a, b = spec.s_range
    start = [spec.x0, spec.y0, 0.0]
    ends = [b, a]                      # of the forward and backward halves
    joint, joint_end, states = None, 0.0, [start, start]  # both halves at |s| = joint_end
    continuations = []                 # (sign, solve) of a half beyond joint_end
    escaped = False
    if a < 0 < b:
        joint = _solve_from_origin(spec.A, spec.B, start * 2, min(b, -a))
        joint_end = float(joint.t[-1])
        states = np.split(joint.y[:, -1], 2)
        if joint.status == 1:
            # the half at the largest |x| or |y| escaped, and so did the
            # other one if it is at the limit too
            escaped = True
            reach = [max(abs(u[0]), abs(u[1])) for u in states]
            for k, sign in enumerate((1.0, -1.0)):
                if reach[k] >= min(max(reach), ESCAPE_LIMIT):
                    ends[k] = sign * joint_end
    for k, sign in enumerate((1.0, -1.0)):
        if sign * ends[k] > joint_end:
            sol = _solve_from_origin(spec.A, spec.B, states[k], ends[k], sign * joint_end)
            if sol.status == 1:
                ends[k] = float(sol.t[-1])
                escaped = True
            continuations.append((sign, sol))
    hi, lo = ends
    if not lo < hi:
        raise CurveFlowError("profile-escape", "profile escapes before s_range")
    s = np.linspace(lo, hi, spec.n)
    vals = np.empty((3, spec.n))
    # each solve reaches an end of s, which is exactly lo or hi, so none is
    # evaluated at no sample
    if joint is not None:
        inside = np.abs(s) <= joint_end
        # one dense evaluation at |s| serves both halves
        halves = np.split(_dense_values(joint, np.abs(s[inside])), 2)
        vals[:, inside] = np.where(s[inside] >= 0, *halves)
    # a continuation, evaluated last, keeps its own value at +-joint_end
    for sign, sol in continuations:
        beyond = sign * s >= joint_end
        vals[:, beyond] = _dense_values(sol, s[beyond])
    return SolitonProfile(s, vals[0], vals[1], vals[2], escaped)


def reconstruct_curve(profile: SolitonProfile, A: float, B: float) -> SampledCurve:
    """Plane curve X = e^{i theta}(x + i y)/(A - i B) from a profile."""
    if A == 0.0 and B == 0.0:
        raise CurveFlowError("degenerate-family", "(A, B) = (0, 0) has no reconstruction")
    # a tiny A - iB puts the curve far out: numpy's complex division passes
    # the largest double when A - iB is subnormal, and X, whose samples lie
    # about ds apart (it has unit speed in s), may hold ds to fewer than 10
    # bits, or lie past the largest double
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(1j * profile.theta) * (profile.x + 1j * profile.y) / (A - 1j * B)
    if not 1024.0 * np.spacing(np.abs(w.view(float)).max()) <= profile.s[1] - profile.s[0]:
        raise CurveFlowError("degenerate-family", f"(A, B) = ({A!r}, {B!r}) lies so near "
                             "(0, 0) that doubles cannot resolve the reconstruction's samples")
    return SampledCurve(2, False, np.column_stack([w.real, w.imag]))


def soliton_residual(curve: SampledCurve, A: float, B: float) -> np.ndarray:
    """Per-sample defect of the shape equation A<X,T> + B<X,N> = kappa."""
    fr = frenet(curve)
    xt = np.einsum("ij,ij->i", curve.points, fr.tangent)
    xn = np.einsum("ij,ij->i", curve.points, fr.normal)
    return np.abs(A * xt + B * xn - fr.curvature)


def scaling_functions(A: float, B: float, t: float) -> tuple[float, float]:
    """Rotation angle f(t) and scale g(t) of the similarity motion."""
    radicand = 2.0 * B * t + 1.0
    if radicand <= 0.0:
        raise CurveFlowError("past-singular-time", "similarity motion ends at t = -1/(2B)")
    if B == 0.0:
        return A * t, 1.0
    return (A / (2.0 * B)) * np.log(radicand), float(np.sqrt(radicand))


def apply_similarity(curve: SampledCurve, A: float, B: float, t: float) -> SampledCurve:
    """Rotate by f(t) and scale by g(t) about the origin."""
    f, g = scaling_functions(A, B, t)
    z = (curve.points[:, 0] + 1j * curve.points[:, 1]) * g * np.exp(1j * f)
    return curve.with_points(np.column_stack([z.real, z.imag]))


def grim_reaper(t: float, xs) -> SampledCurve:
    """The translating graph y = t - log cos x on |x| < pi/2."""
    xs = np.asarray(xs, dtype=float)
    if np.any(np.abs(xs) >= np.pi / 2):
        raise ValueError("grim reaper needs |x| < pi/2")
    return SampledCurve(2, False, np.column_stack([xs, t - np.log(np.cos(xs))]))


def abresch_langer_partner(B: float, r_min: float) -> float:
    """The outer annulus radius with equal weighted radius r e^{B r^2/2}.

    The weight function increases on (0, 1/sqrt(-B)] and decreases on
    [1/sqrt(-B), inf); the partner is the root on the outer branch.
    """
    # NaN fails the branch checks below without raising, so reject it first
    if not (np.isfinite(B) and np.isfinite(r_min)):
        raise ValueError("B and r_min must be finite")
    if B >= 0.0:
        raise CurveFlowError("outside-annulus-branch", "needs B < 0")
    r_star = 1.0 / np.sqrt(-B)
    if not 0.0 < r_min <= r_star:
        raise CurveFlowError(
            "outside-annulus-branch", f"r_min must lie in (0, {r_star:g}]"
        )
    weighted = lambda r: r * np.exp(B * r * r / 2.0)
    target = weighted(r_min)
    if r_min == r_star:
        return r_star
    hi = 2.0 * r_star
    while weighted(hi) > target:
        hi *= 2.0
        if hi > 1e12:
            raise CurveFlowError("outside-annulus-branch", "no outer partner found")
    from scipy.optimize import brentq
    return float(brentq(lambda r: weighted(r) - target, r_star, hi, xtol=1e-15, rtol=8.9e-16))


# ---------------------------------------------------------------------------
# closure detection for sweeps


@dataclass
class ClosureData:
    closed: bool
    p: int | None
    q: int | None
    delta_phi: float
    period: float


def detect_closure(A: float, B: float, x0: float, y0: float = 0.0) -> ClosureData:
    """Angle advance of X between consecutive radius minima.

    The radius |X| has d|X|^2/ds proportional to A x - B y, so minima are
    upward zero crossings of that expression.  The curve closes up when
    the advance over one excursion is 2 pi p/q with small q.  A profile
    with B >= 0 has at most one minimum and is reported open unintegrated.
    A start at a fixed point of the system is a circle of curvature x0: it
    has no radius minima, so one turn is its excursion, reported closed.
    """
    # f = A x - B y has f' = A x y + A^2 + B x^2 + B^2.  Where f = 0,
    # A x y = B y^2, so f' = B (x^2 + y^2) + A^2 + B^2 there.  For B >= 0
    # that is positive unless A = B = 0, when f vanishes identically and
    # never crosses zero.  So f crosses zero at most once, and no profile
    # shows the two radius minima a closure needs.
    _check_finite(A, B, x0, y0)
    if B >= 0.0:
        return ClosureData(False, None, None, float("nan"), float("nan"))
    # there A x - B y vanishes all along, and every step would be a crossing;
    # a start within a few ulps of one is that circle up to rounding
    if all(abs(a + b) <= 4.0 * np.spacing(max(abs(a), abs(b)))
           for a, b in ((x0 * y0, A), (x0 * x0, B))):
        return ClosureData(True, 1, 1, 2.0 * np.pi, 2.0 * np.pi / abs(x0))

    def minimum(_s, u):
        return A * u[0] - B * u[1]

    minimum.direction = 1.0
    minimum.terminal = 2           # the solve stops at the second minimum
    sol = _solve_from_origin(A, B, [x0, y0, 0.0], CLOSURE_MAX_S, events=(minimum, _escape))
    hits = sol.t_events[0]
    if len(hits) < 2:
        return ClosureData(False, None, None, float("nan"), float("nan"))
    s1, s2 = float(hits[0]), float(hits[1])
    fine = np.linspace(s1, s2, 4096)
    xs, ys, thetas = _dense_values(sol, fine)
    args = np.unwrap(np.arctan2(ys, xs))
    delta_phi = (thetas[-1] - thetas[0]) + (args[-1] - args[0])
    ratio = delta_phi / (2.0 * np.pi)
    frac = Fraction(ratio).limit_denominator(40)
    closed = frac.numerator != 0 and abs(ratio - float(frac)) < 1e-6
    if closed:
        return ClosureData(True, frac.numerator, frac.denominator, delta_phi, s2 - s1)
    return ClosureData(False, None, None, delta_phi, s2 - s1)
