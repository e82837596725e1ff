"""Curve shortening flow: linearly implicit stepping and the classical diagnostics.

The flow moves each point by the discrete curvature vector (the second
arclength derivative, the chord-slope stencil of ``geometry``).  Each step
solves that stencil implicitly in time with variable-step BDF2 (Dziuk,
M3AS 1994; Deckelnick, Dziuk and Elliott, Acta Numerica 2005), with the
matrix taken at the chord lengths extrapolated to the new time, so the
step follows the curvature rather than the squared spacing.  It runs on
the shared driver in ``flow``, which resamples when the spacing drifts to
hold the arclength gauge.

Diagnostics cover the arclength decay law dL/dt = -int kappa^2 ds, the
curvature evolution law kappa_t = kappa_ss + kappa^3, the backwards-heat
kernel monotone functional, the chord/arc distance ratio, and parabolic
rescaling about an estimated shrink point.  None of them writes into the
trajectory it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import flow
from .errors import ConfigError, CurveFlowError
from .flow import (FlowTrajectory, ScalarSeries, StepOptions, frame_measures,
                   interior_frames)
from .geometry import (
    SampledCurve,
    _lagrange_d1_d2,
    _pdist,
    _signed_curvature,
    _solve_tridiagonal,
    _unit_scale,
    chord_lengths,
    cumulative_arclength,
    enclosed_area,
    integrate_along,
    isoperimetric_ratio,
    resample_arclength,
    total_length,
)


# step, in units of 1/max kappa^2, that cfl = 1 gives; at cfl = 0.25 the
# shrinking circle keeps its radius law to about 1e-4 (criterion 1)
ACCURACY_FACTOR = 0.012

# largest step, in units of 1/max kappa^2: half of it is the lifetime of the
# osculating circle at the sharpest point.  While the singularity guard holds
# (max kappa times the longest chord at most 1), every cfl step is within it.
MAX_STEP_FACTOR = 0.5

# largest ratio of consecutive steps the BDF2 weights take, and a step past
# it is backward Euler; variable-step BDF2 is zero-stable only below
# 1 + sqrt(2) (Hairer, Norsett and Wanner, Solving ODEs I, section III.5)
MAX_STEP_RATIO = 2.0


def _velocity(pts: np.ndarray, closed: bool):
    h = chord_lengths(pts, closed)
    d1, d2 = _lagrange_d1_d2(pts, h, closed)
    return h, d2, _signed_curvature(d1, d2)


def _step_limits(h: np.ndarray, kappa: np.ndarray):
    # the floor keeps a straight curve's step finite
    inv_k2 = 1.0 / max(float(np.abs(kappa).max()) ** 2, np.finfo(float).tiny)
    return ACCURACY_FACTOR * inv_k2, MAX_STEP_FACTOR * inv_k2


def _implicit_solve(a: float, h: np.ndarray, rhs: np.ndarray, closed: bool) -> np.ndarray:
    """Solve (a I - D2(h)) x = rhs, D2 the chord-slope second-derivative matrix.

    Row i of D2 is the three-point stencil of ``geometry._lagrange_d1_d2``
    on the chords h- and h+ beside sample i; the end rows of an open curve
    are zero.  The matrix is tridiagonal, and cyclic for a closed curve,
    whose two corners are folded in by Sherman-Morrison: one tridiagonal
    solve takes the right-hand sides and the correction column together.
    """
    if closed:
        hm, hp = np.concatenate([h[-1:], h[:-1]]), h
    else:
        hm, hp = h[:-1], h[1:]
    hs = hm + hp
    # at a step far below h^2 the scaled h^2 overflows, and 2/h^2 reads 0, the
    # value it rounds to beside a
    with np.errstate(over="ignore"):
        lo, up = 2.0 / (hm * hs), 2.0 / (hp * hs)
    if not closed:
        # the pinned end rows are a x = rhs
        dl, du = np.concatenate([-lo, [0.0]]), np.concatenate([[0.0], -up])
        d = np.concatenate([[a], a + lo + up, [a]])
        return _solve_tridiagonal(dl, d, du, rhs, overwrite_bands=True)
    dl, d, du = -lo[1:], a + lo + up, -up[:-1]
    # corners M[0, n-1] = alpha and M[n-1, 0] = beta; with gamma = -M[0, 0],
    # M = B + u v^T for u = (gamma, 0, ..., 0, beta), v = (1, 0, ..., 0, alpha/gamma)
    alpha, beta, gamma = -lo[0], -up[-1], -d[0]
    d[0] -= gamma
    d[-1] -= alpha * beta / gamma
    cols = np.zeros((len(rhs), rhs.shape[1] + 1))
    cols[:, :-1] = rhs
    cols[0, -1], cols[-1, -1] = gamma, beta
    sol = _solve_tridiagonal(dl, d, du, cols, overwrite_bands=True, overwrite_b=True)
    y, z = sol[:, :-1], sol[:, -1:]
    ratio = alpha / gamma
    return y - z * ((y[0] + ratio * y[-1]) / (1.0 + z[0] + ratio * z[-1]))


def _step(pts, h, vel, closed, dt, last):
    """One linearly implicit variable-step BDF2 step.

    With w = dt / dt_prev, the step solves
    (a I - D2(h*)) x' = ((1+w) x - w^2/(1+w) x_prev) / dt with
    a = (1+2w) / ((1+w) dt), at the extrapolated chords h* = (1+w) h - w h_prev.
    The start, a resample (``last`` is None) and dt > ``MAX_STEP_RATIO`` dt_prev take
    a zero history at dt_prev = inf: w = 0 is backward Euler.  Pinned ends are copied.
    """
    # 1/dt and the stencil's 2/h^2 set the scale of the system: for c the power
    # of 4 that brings it near 1 (c = 1 in range), the system on dt / c and
    # h / sqrt(c) has the same solution and keeps its products normal doubles
    c = _unit_scale(1.0 / dt + 1.0 / h.min() ** 2)
    if last is None or dt > MAX_STEP_RATIO * last[2]:
        # scalar zeros make every w term an exact +0, so the bits are backward
        # Euler's, signed zeros included
        last = (0.0, 0.0, math.inf)
    pts_prev, h_prev, dt_prev = last
    w = dt / dt_prev
    a = (1.0 + 2.0 * w) / ((1.0 + w) * (dt / c))
    rhs = ((1.0 + w) * pts - (w * w / (1.0 + w)) * pts_prev) / (dt / c)
    h_star = (1.0 + w) * h - w * h_prev
    new = _implicit_solve(a, h_star / math.sqrt(c), rhs, closed)
    if not closed:
        new[[0, -1]] = pts[[0, -1]]
    return new


def _spec() -> flow.FlowSpec:
    # built per call, so a rebinding of _velocity or _step takes effect
    return flow.FlowSpec(dimension=2, velocity=_velocity, step_limits=_step_limits,
                         step=_step)


def evolve(curve: SampledCurve, opts: StepOptions) -> FlowTrajectory:
    """Run the flow until stop_time or an earlier stop; see ``flow.evolve``."""
    return flow.evolve(curve, opts, _spec())


# ---------------------------------------------------------------------------
# evolution-law residuals


def arclength_rate_residual(traj: FlowTrajectory) -> ScalarSeries:
    """|dL/dt + int kappa^2 ds| at interior frames (central difference).

    Length and bending come from ``frame_measures``, so a stored
    trajectory gives the same values.
    """
    t, _ = interior_frames(traj, 2)
    m = frame_measures(traj)
    length = m["length"]
    rate = (length[2:] - length[:-2]) / (t[2:] - t[:-2])
    return ScalarSeries(t[1:-1], np.abs(rate + m["bending"][1:-1]))


def curvature_evolution_residual(traj: FlowTrajectory) -> ScalarSeries:
    """Max per-frame defect of kappa_t = kappa_ss + kappa^3.

    Frames are aligned by arclength fraction (resampled from their
    shared anchor sample), and the time difference at fixed fraction is
    converted to the material rate by subtracting the advection term
    kappa_s * w, where w is the relative arclength drift of a
    fixed-fraction observer against a material point.  The defect is read
    on the samples ``flow.interior_frames`` keeps; one that does not fit
    in a double is refused with ``invalid-input``.
    """
    times, keep = interior_frames(traj, 2)
    frames = traj.frames
    n = frames[0].n
    closed = frames[0].closed

    # _velocity's kappa is frenet's planar kappa, and its chords give the length
    measured = [_velocity(resample_arclength(f, n).points, closed) for f in frames]
    kappas = [kappa for _, _, kappa in measured]
    lengths = [float(h.sum()) for h, _, _ in measured]

    out = np.empty(len(frames) - 2)
    # on a curve of scale 1e-150, kappa^3 and kappa_t pass the largest double
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(frames) - 1):
            kap = kappas[k]
            L = lengths[k]
            ds = L / n if closed else L / (n - 1)
            h = np.full(n if closed else n - 1, ds)
            khat_t = (kappas[k + 1] - kappas[k - 1]) / (times[k + 1] - times[k - 1])

            # a closed curve's trapezoids run through the wrap back to sample 0
            k2 = np.append(kap**2, kap[0] ** 2) if closed else kap**2
            seg = 0.5 * (k2[:-1] + k2[1:]) * ds
            cum = np.concatenate([[0.0], np.cumsum(seg)])
            total = float(seg.sum()) if closed else float(cum[-1])
            s = np.arange(n) * ds
            w = cum[:n] - (s / L) * total

            d1k, d2k = _lagrange_d1_d2(kap[:, None], h, closed)
            res = khat_t - d1k[:, 0] * w - (d2k[:, 0] + kap**3)
            out[k - 1] = float(np.abs(res[keep]).max())
    if not np.all(np.isfinite(out)):
        raise ConfigError("invalid-input", "the curvature residual lies past the "
                          "largest double: kappa^3 or kappa_t overflows at this scale")
    return ScalarSeries(times[1:-1], out)


# ---------------------------------------------------------------------------
# backwards heat kernel and the monotone functional


def backwards_heat_kernel(x: np.ndarray, t: float, x0: np.ndarray, t0: float):
    """(4 pi (t0-t))^(-1/2) exp(-|x-x0|^2 / (4 (t0-t))), defined for t < t0.

    The exponent -1/2 is the one-dimensional normalization appropriate
    for curves.
    """
    if t >= t0:
        raise CurveFlowError("future-kernel", "kernel needs t < t0")
    x = np.asarray(x, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    gap = t0 - t
    d2 = np.sum((x - x0) ** 2, axis=-1)
    return (4.0 * np.pi * gap) ** -0.5 * np.exp(-d2 / (4.0 * gap))


def huisken_functional(curve: SampledCurve, t: float, x0: np.ndarray, t0: float) -> float:
    """Integral of the backwards heat kernel over the curve."""
    rho = backwards_heat_kernel(curve.points, t, x0, t0)
    return integrate_along(curve, rho)


def huisken_series(traj: FlowTrajectory, x0: np.ndarray, t0: float) -> ScalarSeries:
    """Kernel functional along a trajectory."""
    if not (np.isfinite(t0) and np.all(np.isfinite(x0))):
        raise ValueError("x0 and t0 must be finite")
    vals = np.array([huisken_functional(frame, t, x0, t0)
                     for t, frame in zip(traj.times, traj.frames)])
    return ScalarSeries(np.array(traj.times), vals)


# ---------------------------------------------------------------------------
# distance ratio


def distance_ratio(curve: SampledCurve) -> float:
    """sup over sample pairs of L/(pi d) * sin(pi l / L), l the shorter arc."""
    if not curve.closed or curve.dimension != 2:
        raise ValueError("distance ratio needs a closed planar curve")
    s = cumulative_arclength(curve)
    L = total_length(curve)
    d = _pdist(curve.points)
    l = _pdist(s[:, None], "cityblock")
    l = np.minimum(l, L - l)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (L / (np.pi * d)) * np.sin(np.pi * l / L)
    ratio[~np.isfinite(ratio)] = 0.0
    return float(ratio.max())


def distance_ratio_series(traj: FlowTrajectory) -> ScalarSeries:
    vals = np.array([distance_ratio(frame) for frame in traj.frames])
    return ScalarSeries(np.array(traj.times), vals)


# ---------------------------------------------------------------------------
# parabolic rescaling about the shrink point

# earliest rescaled time lam^2 (t - T) that a rescaled trajectory keeps
RESCALE_WINDOW = -4.0

# centroid distance from the shrink point, in rescaled units, above which
# a rescaled frame counts as drifting
DRIFT_LIMIT = 0.1


def estimate_shrink_point(traj: FlowTrajectory) -> np.ndarray:
    """Centroid of the final frame (converges to the blow-up point)."""
    return traj.final.points.mean(axis=0)


def estimate_singular_time(traj: FlowTrajectory) -> float:
    """Final time plus the area law remainder A/(2 pi)."""
    area = enclosed_area(traj.final)
    if not math.isfinite(area):
        raise ConfigError("invalid-input", "the final frame's enclosed area lies past "
                          "the largest double, so the area law gives no singular time")
    return traj.final_time + area / (2.0 * np.pi)


@dataclass
class RescaledTrajectory:
    """One parabolic rescaling lam * (curve - x0) on rescaled time lam^2 (t-T).

    A skipped lam has no trajectory and NaN measures.
    """

    lam: float
    trajectory: FlowTrajectory | None
    iso_at_half: float = float("nan")   # isoperimetric ratio nearest rescaled t = -1/2
    centroid_drift: float = float("nan")

    @property
    def skipped(self) -> bool:
        return self.trajectory is None

    @property
    def drift_flagged(self) -> bool:
        return self.centroid_drift > DRIFT_LIMIT


def parabolic_rescale(traj: FlowTrajectory, x0: np.ndarray, T: float,
                      lambdas) -> list[RescaledTrajectory]:
    """Rescale the trajectory about (x0, T) for each magnification lam.

    Keeps frames with rescaled time in [RESCALE_WINDOW, 0).  A lam whose
    window misses rescaled time -1/2 entirely is skipped; a lam that is not
    positive is refused.
    """
    x0 = np.asarray(x0, dtype=float)
    times = np.array(traj.times)
    out = []
    for lam in lambdas:
        if not lam > 0.0:
            raise ValueError("each rescaling lambda must be positive")
        # lam * lam, not lam**2: a float power raises OverflowError
        tau = lam * lam * (times - T)
        keep = (tau >= RESCALE_WINDOW) & (tau < 0.0)
        if not np.any(keep) or tau[keep].min() > -0.5 or tau[keep].max() < -0.5:
            out.append(RescaledTrajectory(lam, None))
            continue
        sub = FlowTrajectory(stop_reason="rescaled")
        for idx in np.nonzero(keep)[0]:
            frame = traj.frames[idx]
            sub.append(float(tau[idx]), frame.with_points(lam * (frame.points - x0)))
        frame_half = sub.frames[int(np.argmin(np.abs(np.array(sub.times) + 0.5)))]
        out.append(RescaledTrajectory(
            lam, sub, isoperimetric_ratio(frame_half),
            float(np.linalg.norm(frame_half.points.mean(axis=0)))))
    return out


# ---------------------------------------------------------------------------
# heat-equation oracle


def heat_self_similar(x, t: float, k: float = 1.0):
    """Normalized self-similar heat profile (4 pi k t)^(-1/2) e^(-x^2/(4kt))."""
    if t <= 0 or k <= 0:
        raise ValueError("heat profile needs t > 0 and k > 0")
    x = np.asarray(x, dtype=float)
    return (4.0 * np.pi * k * t) ** -0.5 * np.exp(-(x**2) / (4.0 * k * t))
