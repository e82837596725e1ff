"""Self-similar curve shortening solutions from the planar two-parameter ODE.

A curve that evolves by rotation (rate A) and dilation (rate B) has a
profile governed by the autonomous system

    x' = x y + A,      y' = -x^2 - B,      theta' = x,

where x is the curvature, y the tangential support component, and theta
the tangent angle.  The plane curve is recovered from a profile as
X = e^{i theta} (x + i y) / (A - i B), which is arclength-parametrized.
Profiles are integrated by Taylor series of order ORDER, whose
coefficients follow from the system by Cauchy products, at the local
tolerance TOL; each half of a range about the data at s = 0 is its own solve.
The module also carries the two classical special cases: the translating
grim reaper graph and the closed shrinkers confined to an annulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import CurveFlowError
from .geometry import SampledCurve, _check_grid, frenet

# |x| or |y| beyond this truncates the profile with the escaped flag set.
ESCAPE_LIMIT = 1e8

# arclength over which detect_closure looks for two radius minima
CLOSURE_MAX_S = 400.0

# the local tolerance of the Taylor steps, and their order, ceil(-ln(TOL)/2 + 1),
# near which the work per unit of s is least (Jorba and Zou)
TOL = 1e-11
ORDER = 14

# Taylor steps past which a profile solve is refused
MAX_STEPS = 10_000


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
    # refused as input: the solve would fail on its first Taylor coefficients
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
    steps: tuple[int, int] = (0, 0)    # Taylor steps of the forward and backward halves


def _horner(c, t: float) -> float:
    """The polynomial with coefficients c (lowest order first) at t."""
    v = c[-1]
    for a in c[-2::-1]:
        v = v * t + a
    return v


def _bisect(inside, h: float) -> float:
    """Where ``inside`` turns true on [0, h], to h / 2^60: it holds at h and
    not at 0."""
    lo, hi = 0.0, h
    for _ in range(60):
        mid = lo + 0.5 * (hi - lo)
        lo, hi = (lo, mid) if inside(mid) else (mid, hi)
    return hi


def _taylor_steps(A: float, B: float, u0, r_end: float, sign: float = 1.0):
    """Taylor steps of the profile from the state u0 at r = 0 toward r_end.

    r is s for sign = 1 and -s for sign = -1, where v(r) = u(-r) obeys
    v' = -f(v).  Each step is (r0, r1, c), c holding the ORDER + 1 Taylor
    coefficients at r0 of x, y and theta from the Cauchy-product recurrence.
    Its length is the least of (TOL s_i/|c_{i,p-1}|)^(1/(p-1)) and
    (TOL s_i/|c_{i,p}|)^(1/p) over the components i of scale s_i (Jorba and
    Zou, *Experimental Mathematics* 14, 2005).  The steps stop where |x| or
    |y| reaches ESCAPE_LIMIT, found by bisection on the last step.  A start
    past that limit, a vanishing step, a non-finite value and a solve past
    MAX_STEPS (|B| of 1e9 makes a fast oscillator) are refused.
    """
    x, y, theta = u0
    if not max(abs(x), abs(y)) < ESCAPE_LIMIT:
        raise CurveFlowError("profile-solve-failed", "the state at s = 0 lies "
                             f"past the escape limit {ESCAPE_LIMIT:g}")
    div = [sign * k for k in range(1, ORDER + 1)]
    r, steps = 0.0, 0
    while r < r_end:
        steps += 1
        if steps > MAX_STEPS:
            raise CurveFlowError("profile-solve-failed", f"the profile solve passed "
                                 f"{MAX_STEPS} steps before s = {sign * r_end!r}")
        X, Y = [x, (x * y + A) / div[0]], [y, (-x * x - B) / div[0]]
        T = [theta, x / div[0]]
        for k in range(1, ORDER):
            xy = sum(map(mul, X, reversed(Y)))
            Y.append(-sum(map(mul, X, reversed(X))) / div[k])
            T.append(X[k] / div[k])
            X.append(xy / div[k])
        # x and y are measured relative to their own size, down to 1e-290:
        # x' = x y + A carries a relative error of a small x into a large
        # one; theta, an angle, is measured relative to max(1, |theta|).
        # Each root is taken apart, since TOL * 1e-290 / |c| may underflow
        scales = (max(abs(x), 1e-290), max(abs(y), 1e-290), max(1.0, abs(theta)))
        top = (X[-2], Y[-2], T[-2], X[-1], Y[-1], T[-1])
        h = min((TOL * sc) ** (1.0 / q) / abs(m) ** (1.0 / q) if m else math.inf
                for q, ms in ((ORDER - 1, top[:3]), (ORDER, top[3:]))
                for sc, m in zip(scales, ms))
        r1 = min(r + h, r_end)
        if not (r1 > r and all(map(math.isfinite, top))):
            raise CurveFlowError("profile-solve-failed", "the profile's Taylor coefficients "
                                 f"at s = {sign * r!r} pass the largest double or give "
                                 f"a vanishing step {h!r}")
        c = (X, Y, T)
        x, y, theta = (_horner(ci, r1 - r) for ci in c)
        if not (abs(x) < ESCAPE_LIMIT and abs(y) < ESCAPE_LIMIT):
            def escaped(t):
                return not (abs(_horner(X, t)) < ESCAPE_LIMIT and
                            abs(_horner(Y, t)) < ESCAPE_LIMIT)
            yield r, r + _bisect(escaped, r1 - r), c
            return
        if not math.isfinite(theta):
            raise CurveFlowError("profile-solve-failed", "the profile's tangent angle "
                                 f"passes the largest double at s = {sign * r1!r}")
        yield r, r1, c
        r = r1


def _evaluate(steps, r: np.ndarray) -> np.ndarray:
    """The (x, y, theta) rows of Taylor steps at the points r, in one pass:
    each point takes the last step that starts at or before it, with the
    bits of ``_horner`` there."""
    starts = np.array([step[0] for step in steps])
    k = np.searchsorted(starts, r, side="right") - 1
    c = np.array([step[2] for step in steps])[k]
    t = (r - starts[k])[:, None]
    v = c[:, :, -1]
    for j in range(ORDER - 1, -1, -1):
        v = v * t + c[:, :, j]
    return v.T


def integrate_profile(spec: CsfSolitonSpec) -> SolitonProfile:
    """Integrate the profile system over s_range (initial data sits at s=0).

    Each half of s_range about s = 0 is its own Taylor solve from s = 0,
    the backward one in r = -s; a one-sided range takes one solve.  The
    range is truncated where the state escapes ESCAPE_LIMIT, with the
    escaped flag set.
    """
    a, b = spec.s_range
    ends = {1.0: b, -1.0: a}
    halves = {}
    for sign, end in ends.items():
        if sign * end > 0.0:
            halves[sign] = list(_taylor_steps(spec.A, spec.B, (spec.x0, spec.y0, 0.0),
                                              sign * end, sign))
            ends[sign] = sign * halves[sign][-1][1]
    hi, lo = ends.values()
    if not lo < hi:
        raise CurveFlowError("profile-escape", "profile escapes before s_range")
    s = np.linspace(lo, hi, spec.n)
    # s = 0 belongs to the forward half when there is one
    forward = (s >= 0.0) & (b > 0.0)
    vals = np.empty((3, spec.n))
    for sign, steps in halves.items():
        mask = forward if sign > 0.0 else ~forward
        vals[:, mask] = _evaluate(steps, sign * s[mask])
    return SolitonProfile(s, vals[0], vals[1], vals[2], (lo, hi) != (a, b),
                          tuple(len(halves.get(sign, ())) for sign in (1.0, -1.0)))


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
    steps: int = 0                 # Taylor steps of the solve, 0 unintegrated


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
    # there A x - B y vanishes all along, so the steps would find no radius
    # minimum; a start within a few ulps of one is that circle up to rounding
    if all(abs(a + b) <= 4.0 * np.spacing(max(abs(a), abs(b)))
           for a, b in ((x0 * y0, A), (x0 * x0, B))):
        return ClosureData(True, 1, 1, 2.0 * np.pi, 2.0 * np.pi / abs(x0))

    steps, hits = [], []
    for r0, r1, c in _taylor_steps(A, B, (x0, y0, 0.0), CLOSURE_MAX_S):
        steps.append((r0, r1, c))
        rate = [A * x - B * y for x, y in zip(c[0], c[1])]
        # the solve stops at the second minimum
        if rate[0] <= 0.0 < _horner(rate, r1 - r0):
            hits.append(r0 + _bisect(lambda t: _horner(rate, t) > 0.0, r1 - r0))
            if len(hits) == 2:
                break
    if len(hits) < 2:
        return ClosureData(False, None, None, float("nan"), float("nan"), len(steps))
    s1, s2 = hits
    fine = np.linspace(s1, s2, 4096)
    xs, ys, thetas = _evaluate(steps, fine)
    args = np.unwrap(np.arctan2(ys, xs))
    delta_phi = (thetas[-1] - thetas[0]) + (args[-1] - args[0])
    ratio = delta_phi / (2.0 * np.pi)
    frac = Fraction(ratio).limit_denominator(40)
    closed = bool(frac.numerator != 0 and abs(ratio - float(frac)) < 1e-6)
    p, q = (frac.numerator, frac.denominator) if closed else (None, None)
    return ClosureData(closed, p, q, delta_phi, s2 - s1, len(steps))
